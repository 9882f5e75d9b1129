"""The series against independent oracles over random parameters:
pdf_grid and cdf_grid against the phase-average oracle of conftest, and
mgf_series_grid against mgf_closed.

Every draw either agrees to 1e-11 relative, with no absolute floor however
small the value, or raises CancellationLossError or SeriesDivergenceError:
the accuracy contract of the series.  K reaches 40, where the sums cancel
by up to about 1e34 and only mpmath passes can vouch for them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twdp import (
    CancellationLossError,
    SeriesDivergenceError,
    TwdpParams,
    cdf_grid,
    mgf_closed,
    mgf_series_grid,
    pdf_grid,
)

from conftest import phase_average_cdf, phase_average_pdf

REL = 1e-11
DRAWS = settings(max_examples=25)

# default (None) and non-default diffuse power
params = st.builds(TwdpParams, k=st.floats(0.0, 40.0), gamma=st.floats(0.0, 1.0),
                   sigma2=st.one_of(st.none(), st.floats(0.05, 5.0)))
# one envelope value r / sqrt(Omega) in each tail and one in the body
r_norm = st.tuples(st.floats(1e-3, 0.3), st.floats(0.3, 2.0), st.floats(2.0, 3.5))


def assert_contract(series, refs):
    """series() agrees with refs pointwise to REL, or raises a documented
    loss of accuracy."""
    try:
        results = series()
    except (CancellationLossError, SeriesDivergenceError):
        return
    for res, ref in zip(results, refs):
        assert res.value == pytest.approx(ref, rel=REL, abs=0)


@DRAWS
@given(params, r_norm)
def test_pdf_grid_against_phase_average(p, rn):
    r = np.array(rn) * math.sqrt(p.omega)
    assert_contract(lambda: pdf_grid(p, r), phase_average_pdf(p, r))


@DRAWS
@given(params, r_norm)
def test_cdf_grid_against_phase_average(p, rn):
    r = np.array(rn) * math.sqrt(p.omega)
    assert_contract(lambda: cdf_grid(p, r), phase_average_cdf(p, r))


@DRAWS
@given(params, st.floats(0.1, 1e3), st.lists(st.floats(-20.0, 0.0), min_size=3, max_size=3))
def test_mgf_series_grid_against_closed(p, gamma0, ss):
    assert_contract(lambda: mgf_series_grid(p, gamma0, ss),
                    [mgf_closed(p, gamma0, s) for s in ss])
