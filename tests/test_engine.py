"""The array series engine against scalar long-double loops, bit for bit.

Every series pass sums all points of a grid at once; the references in
conftest sum one point at a time in the order the arithmetic was written
before the passes became array-native.  Equality is exact: the per-point
operations are the same, only their batching differs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twdp import (
    ModulationSpec,
    SeriesControl,
    SnrContext,
    TwdpParams,
    asep_exact,
    asep_exact_grid,
    cdf,
    cdf_grid,
    mgf_series,
    mgf_series_grid,
    pdf,
    pdf_grid,
)
from twdp.asep import _asep_pass
from twdp.dist import _cdf_pass, _pdf_pass
from twdp.mgf import _mgf_series_pass
from twdp.specfun import _ARITH_LD, _ive_ladder

from conftest import (
    asep_pass_scalar,
    cdf_pass_scalar,
    ive_ladder_scalar,
    mgf_pass_scalar,
    pdf_pass_scalar,
)

CTL = SeriesControl()
FAST = settings(max_examples=40, deadline=None)

# both sides of the small-x branch at 0.5, and far up the ladder
ladder_args = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 0.5, exclude_max=True),
    st.floats(0.5, 2.0),
    st.floats(2.0, 600.0),
)
params = st.builds(TwdpParams, k=st.floats(0.0, 20.0), gamma=st.floats(0.0, 1.0))


def assert_pass_matches(grid_out, refs):
    value, terms, n, trunc, possum, ratio = grid_out
    assert terms == sum(r[1] for r in refs)
    for i, ref in enumerate(refs):
        assert (value[i], n[i], trunc[i], possum[i], ratio[i]) == ref


@FAST
@given(st.lists(ladder_args, min_size=1, max_size=12), st.sampled_from([0, 3, 48]))
def test_ive_ladder_matches_scalar_loop(xs, nu):
    rows = _ive_ladder(np.array(xs), nu)
    for j, x in enumerate(xs):
        ref = ive_ladder_scalar(x, nu)
        assert list(rows[:, j]) == ref
        assert list(_ive_ladder(x, nu)) == ref


@FAST
@given(params, st.lists(st.floats(0.01, 3.5), min_size=1, max_size=6))
def test_pdf_pass_matches_scalar_loop(p, rn):
    r = np.array(rn) * math.sqrt(p.omega)
    assert_pass_matches(_pdf_pass(p, r, CTL, _ARITH_LD), [pdf_pass_scalar(p, v, CTL) for v in r])


@FAST
@given(params, st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=6))
def test_cdf_pass_matches_scalar_loop(p, xs):
    x = np.array(xs, dtype=np.longdouble)
    # rescues: each point stops on its own
    assert_pass_matches(_cdf_pass(p, x, CTL, _ARITH_LD), [cdf_pass_scalar(p, v, CTL) for v in x])
    # the grid pass: sums run on to the last point's stop
    out = _cdf_pass(p, x, CTL, _ARITH_LD, freeze=False)
    assert_pass_matches(out, [cdf_pass_scalar(p, v, CTL, run_to=max(out[2])) for v in x])


@FAST
@given(params, st.floats(0.1, 1e3), st.lists(st.floats(-100.0, 0.0), min_size=1, max_size=6))
def test_mgf_pass_matches_scalar_loop(p, gamma0, ss):
    s = np.array(ss)
    assert_pass_matches(_mgf_series_pass(p, gamma0, s, CTL, _ARITH_LD),
                        [mgf_pass_scalar(p, gamma0, v, CTL) for v in s])


@settings(max_examples=15, deadline=None)
@given(st.builds(TwdpParams, k=st.floats(0.0, 14.0), gamma=st.floats(0.0, 1.0)),
       st.sampled_from([2, 4, 8, 16]),
       st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5))
def test_asep_pass_matches_scalar_loop(p, m_order, dbs):
    mod = ModulationSpec(m_order)
    g0 = 10.0 ** (np.array(dbs) / 10.0)
    assert_pass_matches(_asep_pass(p, mod, g0, CTL, _ARITH_LD),
                        [asep_pass_scalar(p, mod.sin2_pim, v, CTL) for v in g0])


class TestScalarIsGridOfOne:
    """A scalar call is its grid form on one point, rescued points included."""

    P = TwdpParams(k=14.0, gamma=1.0)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.2, 3.0])
    def test_pdf_and_cdf(self, r):
        assert pdf(self.P, r) == pdf_grid(self.P, [r])[0]
        assert cdf(self.P, r) == cdf_grid(self.P, [r])[0]

    def test_mgf_series(self):
        ctx = SnrContext.from_average_snr(self.P, 100.0)
        for s in (-50.0, -1.0, 0.0):
            assert mgf_series(self.P, ctx, s) == mgf_series_grid(self.P, ctx, [s])[0]

    def test_asep_exact(self):
        mod = ModulationSpec(4)
        for g0 in (1.0, 1e3):
            assert asep_exact(self.P, mod, g0) == asep_exact_grid(self.P, mod, [g0])[0]


class TestRescuedTogether:
    """Points that rerun together at one precision get the values they get
    when rerun alone."""

    P = TwdpParams(k=14.0, gamma=1.0)

    def test_pdf_grid(self):
        rs = np.linspace(0.2, 0.9, 8)
        grid = pdf_grid(self.P, rs)
        assert sum(res.cancellation_ratio > 1e6 for res in grid) >= 4
        assert grid == [pdf(self.P, float(r)) for r in rs]

    def test_mgf_series_grid(self):
        ctx = SnrContext.from_average_snr(self.P, 1e3)
        ss = [-100.0, -60.0, -30.0, -10.0]
        grid = mgf_series_grid(self.P, ctx, ss)
        assert grid == [mgf_series(self.P, ctx, s) for s in ss]

    def test_asep_exact_grid(self):
        mod = ModulationSpec(2)
        g0s = [1e3, 2e3, 1e4]
        grid = asep_exact_grid(self.P, mod, g0s)
        assert all(res.cancellation_ratio > 1e6 for res in grid)
        assert grid == [asep_exact(self.P, mod, g0) for g0 in g0s]
