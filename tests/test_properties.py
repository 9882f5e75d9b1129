"""The series against independent oracles over random parameters:
pdf_grid and cdf_grid against the phase-average oracle of conftest,
mgf_series_grid against mgf_closed and, far into s < 0, against mpmath,
and mgf_closed against mpmath up to K = 1e300.

Every draw either agrees to 1e-11 relative, with no absolute floor however
small the value, or raises SeriesDivergenceError: the accuracy contract of
the series.  K reaches 40, where the paper's sums cancel by up to about
1e34 and only the positive mixture can give them; fixed points at K = 60
and 90 take the pdf and cdf to cancellations of about 1e66, and the K = 90,
Gamma = 1 cdf's left tail past the paper's 500-term budget.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twdp import (
    SeriesDivergenceError,
    TwdpParams,
    cdf_grid,
    mgf_closed,
    mgf_series_grid,
    pdf_grid,
)
from twdp.dist import _pdf_args

from conftest import mgf_mp, phase_average_cdf, phase_average_pdf

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
    except SeriesDivergenceError:
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


@DRAWS
@given(params, st.floats(-1.0, 4.0), st.lists(st.floats(-3.0, 12.0), min_size=3, max_size=3))
def test_mgf_series_grid_far_left_against_mpmath(p, db10, log_s):
    # gamma0 up to 40 dB and s down to -1e12, where a = (1+K)/(1+K - g0 s)
    # is far below 1
    gamma0, ss = 10.0 ** db10, [-(10.0 ** e) for e in log_s]
    assert_contract(lambda: mgf_series_grid(p, gamma0, ss),
                    [float(mgf_mp(p, gamma0, s, 50)) for s in ss])


@DRAWS
@given(st.floats(-2.0, 300.0), st.floats(0.0, 1.0), st.floats(-1.0, 4.0), st.floats(-3.0, 2.8))
def test_mgf_closed_against_mpmath(log_k, gamma, db10, log_x):
    # K log-uniform up to 1e300; s from x = -g0 s, so that the value,
    # above (1+K)/(1+K+x) e^-x, stays normal
    p, gamma0 = TwdpParams(k=10.0 ** log_k, gamma=gamma), 10.0 ** db10
    s = -(10.0 ** log_x) / gamma0
    assert mgf_closed(p, gamma0, s) == pytest.approx(float(mgf_mp(p, gamma0, s, 50)),
                                                     rel=1e-13, abs=0)


# envelope values r / sqrt(Omega) from the left tail past the right
HIGH_K_R = (0.05, 0.3, 0.7, 1.0, 1.19, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("which", ["pdf", "cdf"])
@pytest.mark.parametrize("k,gamma", [(60.0, 0.0), (60.0, 1.0), (90.0, 0.0), (90.0, 1.0)])
def test_high_k_against_phase_average(which, k, gamma):
    # the paper's sums cancel by up to about 1e66 here, and the K=90,
    # Gamma=1 cdf left tail climbs to a hump past their 500-term budget:
    # those points are the mixture's
    p = TwdpParams(k=k, gamma=gamma)
    series, oracle = {"pdf": (pdf_grid, phase_average_pdf),
                      "cdf": (cdf_grid, phase_average_cdf)}[which]
    r = np.array(HIGH_K_R) * math.sqrt(p.omega)
    for res, ref in zip(series(p, r), oracle(p, r)):
        assert res.value == pytest.approx(ref, rel=REL, abs=0)


@DRAWS
@given(st.builds(TwdpParams, k=st.floats(0.0, 1e3), gamma=st.floats(0.0, 1.0),
                 sigma2=st.one_of(st.none(), st.floats(0.05, 5.0))),
       st.floats(0.0, 4.0))
def test_pdf_rician_bound_within_prefactor_bound(p, rn):
    # the zero shortcut's bound (r/sigma^2) exp(-d^2) is never looser than
    # the prefactor (r/sigma^2) exp(-(sqrt(x) - sqrt(K'))^2 + 2c), up to the
    # prefactor exponent's rounding, and it bounds the density itself
    r = rn * math.sqrt(p.omega)
    _, _, _, pref, bound = _pdf_args(p, np.array([r], dtype=np.longdouble))
    x = np.longdouble(r) ** 2 / (2 * np.longdouble(p.sigma2))
    assert bound[0] <= pref[0] * np.exp(np.longdouble(1e-17) * (1 + x + p.k))
    assert phase_average_pdf(p, np.array([r]))[0] <= float(bound[0]) * (1 + 1e-11)
