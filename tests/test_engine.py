"""The array series engine against scalar long-double loops, bit for bit,
and its double-longdouble rescues against 50-digit mpmath passes.

Every series pass sums all points of a grid at once; the references in
conftest sum one point at a time in the order the arithmetic was written
before the passes became array-native.  Equality is exact: the per-point
operations are the same, only their batching differs.
"""

import logging
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twdp import (
    ModulationSpec,
    TwdpParams,
    asep_exact,
    asep_exact_grid,
    cdf,
    cdf_grid,
    mgf_closed,
    mgf_series,
    mgf_series_grid,
    pdf,
    pdf_grid,
)
from twdp import asep, dist
from twdp.asep import _asep_pass
from twdp.dist import _cdf_pass, _pdf_pass
from twdp.mgf import _mgf_series_pass
from twdp import specfun
from twdp.specfun import _ARITH_LD, _arith_mp, _ive_ladder

from conftest import (
    asep_pass_scalar,
    cdf_pass_scalar,
    ive_ladder_scalar,
    mgf_pass_scalar,
    pdf_pass_scalar,
)

FAST = settings(max_examples=40)
needs_dd = pytest.mark.skipif(specfun._arith_dd() is None,
                              reason="the dd tier needs x87 80-bit long doubles")

# both sides of the small-x branch at 0.5, and far up the ladder
ladder_args = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 0.5, exclude_max=True),
    st.floats(0.5, 2.0),
    st.floats(2.0, 600.0),
)
params = st.builds(TwdpParams, k=st.floats(0.0, 20.0), gamma=st.floats(0.0, 1.0))


def assert_pass_matches(grid_out, refs):
    value, terms, n, trunc, ratio, converged = grid_out
    assert converged.all()
    assert terms == sum(r[1] for r in refs)
    for i, ref in enumerate(refs):
        assert (value[i], n[i], trunc[i], ratio[i]) == ref


@FAST
@given(st.lists(ladder_args, min_size=1, max_size=12), st.sampled_from([0, 3, 48]))
def test_ive_ladder_matches_scalar_loop(xs, nu):
    rows = _ive_ladder(np.array(xs), nu)
    for j, x in enumerate(xs):
        ref = ive_ladder_scalar(x, nu)
        assert list(rows[:, j]) == ref
        assert list(_ive_ladder(np.array([x]), nu)[:, 0]) == ref


@FAST
@given(params, st.lists(st.floats(0.01, 3.5), min_size=1, max_size=6))
def test_pdf_pass_matches_scalar_loop(p, rn):
    r = np.array(rn) * math.sqrt(p.omega)
    assert_pass_matches(_pdf_pass(p, r, _ARITH_LD), [pdf_pass_scalar(p, v) for v in r])


@FAST
@given(params, st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=6))
def test_cdf_pass_matches_scalar_loop(p, xs):
    x = np.array(xs, dtype=np.longdouble)
    assert_pass_matches(_cdf_pass(p, x, _ARITH_LD), [cdf_pass_scalar(p, v) for v in x])


@FAST
@given(params, st.floats(0.1, 1e3), st.lists(st.floats(-100.0, 0.0), min_size=1, max_size=6))
def test_mgf_pass_matches_scalar_loop(p, gamma0, ss):
    s = np.array(ss)
    assert_pass_matches(_mgf_series_pass(p, gamma0, s, _ARITH_LD),
                        [mgf_pass_scalar(p, gamma0, v) for v in s])


@settings(max_examples=15)
@given(st.builds(TwdpParams, k=st.floats(0.0, 14.0), gamma=st.floats(0.0, 1.0)),
       st.sampled_from([2, 4, 8, 16]),
       st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5))
def test_asep_pass_matches_scalar_loop(p, m_order, dbs):
    mod = ModulationSpec(m_order)
    g0 = 10.0 ** (np.array(dbs) / 10.0)
    assert_pass_matches(_asep_pass(p, mod, g0, _ARITH_LD),
                        [asep_pass_scalar(p, mod.sin2_pim, v) for v in g0])


class TestScalarIsGridOfOne:
    """A scalar call is its grid form on one point, rescued points included."""

    P = TwdpParams(k=14.0, gamma=1.0)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.2, 3.0])
    def test_pdf_and_cdf(self, r):
        assert pdf(self.P, r) == pdf_grid(self.P, [r])[0]
        assert cdf(self.P, r) == cdf_grid(self.P, [r])[0]

    def test_mgf_series(self):
        gamma0 = 100.0
        for s in (-50.0, -1.0, 0.0):
            assert mgf_series(self.P, gamma0, s) == mgf_series_grid(self.P, gamma0, [s])[0]

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

    def test_cdf_grid(self):
        # a curve value does not depend on the curve: before, the grid's
        # long-double sums ran on to the last point's stop
        rs = np.linspace(0.2, 3.0, 8)
        grid = cdf_grid(self.P, rs)
        assert sum(res.cancellation_ratio > 1e6 for res in grid) >= 2
        assert grid == [cdf(self.P, float(r)) for r in rs]

    def test_mgf_series_grid(self):
        gamma0 = 1e3
        ss = [-100.0, -60.0, -30.0, -10.0]
        grid = mgf_series_grid(self.P, gamma0, ss)
        assert grid == [mgf_series(self.P, gamma0, s) for s in ss]

    def test_asep_exact_grid(self):
        mod = ModulationSpec(2)
        g0s = [1e3, 2e3, 1e4]
        grid = asep_exact_grid(self.P, mod, g0s)
        assert all(res.cancellation_ratio > 1e6 for res in grid)
        assert grid == [asep_exact(self.P, mod, g0) for g0 in g0s]

    @needs_dd
    def test_asep_exact_grid_in_mpmath(self, monkeypatch):
        # at K=30 all three points pass the dd bound; they need 41, 41 and
        # 43 digits, rounded up to 48, and rerun in one mpmath pass
        p, mod = TwdpParams(k=30.0, gamma=1.0), ModulationSpec(2)
        g0s = [10.0 ** 1.8, 100.0, 1000.0]
        mp_passes = []

        def arith_mp(points=None):
            mp_passes.append((mp.mp.dps, list(points)))
            return _arith_mp(points)

        monkeypatch.setattr(specfun, "_arith_mp", arith_mp)
        grid = asep_exact_grid(p, mod, g0s)
        assert mp_passes == [(48, [0, 1, 2])]
        assert grid == [asep_exact(p, mod, g0) for g0 in g0s]

    def test_asep_exact_grid_over_a_rescued_sweep(self):
        # K=30: the sweep's points rerun in dd and at 40 and 48 digits
        p, mod = TwdpParams(k=30.0, gamma=1.0), ModulationSpec(2)
        g0s = 10.0 ** (np.arange(0.0, 41.0, 5.0) / 10.0)
        grid = asep_exact_grid(p, mod, g0s)
        assert {res.tier for res in grid} == {"dd", "mp40", "mp48"}
        assert grid == [asep_exact(p, mod, g0) for g0 in g0s]

    @needs_dd
    def test_asep_dd_pass_does_not_depend_on_the_sweep(self):
        # K=90, gamma0 = 10: the dd pass measures the same cancellation,
        # and sums the same value, alone and inside the 0:40:10 dB sweep
        p, mod = TwdpParams(k=90.0, gamma=1.0), ModulationSpec(2)
        g0s = 10.0 ** (np.arange(0.0, 41.0, 10.0) / 10.0)
        dd = specfun._arith_dd()
        value, _, n, trunc, ratio, ok = _asep_pass(p, mod, g0s, replace(dd, points=np.arange(5)))
        alone = _asep_pass(p, mod, g0s, replace(dd, points=np.array([1])))
        assert ratio[1] > 1e38
        assert (value[1], n[1], trunc[1], ratio[1], ok[1]) == tuple(v[0] for v in alone[:1] + alone[2:])

    def test_k40_cdf_and_mgf_grids(self):
        # left-tail cdf points and MGF points that rerun in mpmath at
        # several precisions: each keeps the tier its own ratio calls for
        p = TwdpParams(k=40.0, gamma=0.0)
        rs = [0.01, 0.02, 0.05, 0.1, 0.2]
        grid = cdf_grid(p, rs)
        assert len({res.tier for res in grid}) >= 2
        assert grid == [cdf(p, r) for r in rs]
        gamma0 = 10.0
        ss = [-100.0, -30.0, -10.0, -8.0]
        grid = mgf_series_grid(p, gamma0, ss)
        assert any(res.tier.startswith("mp") for res in grid)
        assert grid == [mgf_series(p, gamma0, s) for s in ss]


class TestGridIndependence:
    """A point's SeriesResult (value, terms, truncation, ratio, tier and
    passes) is the same bit for bit alone and inside a grid whose other
    points stop at other terms and rerun in other tiers."""

    GAMMA0 = 10.0
    GRIDS = {
        "pdf": [0.2, 0.7, 1.1, 1.6, 2.4, 3.0, 3.4],
        "cdf": [0.2, 0.7, 1.1, 1.6, 2.4, 3.0, 3.4],
        "mgf": [-100.0, -30.0, -10.0, -3.0, -0.5, 0.0],
        "asep": [1.0, 10.0, 100.0, 1e3, 1e4],
        "cdf-left": [0.01, 0.02, 0.05, 0.1, 0.2, 0.8],
        "mgf-k40": [-100.0, -30.0, -10.0, -8.0, -4.0, -1.0],
    }

    def evaluate(self, kind, p):
        xs, g0, mod = self.GRIDS[kind], self.GAMMA0, ModulationSpec(16)
        if kind == "pdf":
            return pdf_grid(p, xs), [pdf(p, x) for x in xs]
        if kind.startswith("cdf"):
            return cdf_grid(p, xs), [cdf(p, x) for x in xs]
        if kind.startswith("mgf"):
            return mgf_series_grid(p, g0, xs), [mgf_series(p, g0, s) for s in xs]
        return asep_exact_grid(p, mod, xs), [asep_exact(p, mod, v) for v in xs]

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf", "asep"])
    @pytest.mark.parametrize("k,gamma,tier", [
        (8.0, 0.5, "longdouble"),
        pytest.param(14.0, 1.0, "dd", marks=needs_dd),
        pytest.param(20.0, 1.0, "dd", marks=needs_dd),
    ])
    def test_long_double_and_dd(self, kind, k, gamma, tier):
        grid, alone = self.evaluate(kind, TwdpParams(k=k, gamma=gamma))
        assert tier in {res.tier for res in grid}
        assert len({res.terms_used for res in grid}) > 1
        assert grid == alone

    @needs_dd
    @pytest.mark.parametrize("kind", ["cdf-left", "mgf-k40"])
    def test_mpmath(self, kind):
        grid, alone = self.evaluate(kind, TwdpParams(k=40.0, gamma=0.0))
        tiers = {res.tier for res in grid}
        assert "dd" in tiers and any(t.startswith("mp") for t in tiers)
        assert grid == alone


def rescue_case(kind, p):
    """A grid of points whose long-double sums cannot be trusted: the public
    grid evaluation on it, and its series pass for a given arithmetic."""
    if kind == "mgf":
        gamma0 = 10.0
        s = np.linspace(-10.0, -3.0, 6)
        return (lambda: mgf_series_grid(p, gamma0, s),
                lambda be: _mgf_series_pass(p, gamma0, s, be))
    if kind == "pdf":
        r = np.linspace(0.7, 1.8, 6)
        return lambda: pdf_grid(p, r), lambda be: _pdf_pass(p, r, be)
    if kind == "pdf-tail":
        # the upper tail down to 4.5e-208 at K=14: held to the relative
        # target however small the value
        r = np.append(np.linspace(3.0, 3.5, 6), 7.0) * math.sqrt(p.omega)
        return lambda: pdf_grid(p, r), lambda be: _pdf_pass(p, r, be)
    # the K=40 left tail and the bulk
    r = np.array([0.01, 0.05, 0.1, 0.2, 0.8, 0.9]) if p.k == 40.0 else np.linspace(0.2, 0.8, 6)
    x = r.astype(np.longdouble) ** 2 / (2 * np.longdouble(p.sigma2))
    return lambda: cdf_grid(p, r), lambda be: _cdf_pass(p, x, be)


def at_digits(series, digits=50):
    with mp.workdps(digits):
        value, *_, converged = series(_arith_mp())
    assert converged.all()
    return value


class TestDoubleLongdoubleRescue:
    @pytest.mark.parametrize("kind,k,gamma", [(kind, k, 1.0) for k in (14.0, 20.0)
                                              for kind in ("pdf", "cdf", "mgf")]
                             + [("cdf", 40.0, 0.0)])
    def test_against_50_digit_mpmath(self, kind, k, gamma):
        grid, series = rescue_case(kind, TwdpParams(k=k, gamma=gamma))
        for res, want in zip(grid(), at_digits(series)):
            assert res.cancellation_ratio > 1e8
            assert res.value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [14.0, 20.0, 30.0])
    def test_pdf_tail_against_64_digit_mpmath(self, k):
        grid, series = rescue_case("pdf-tail", TwdpParams(k=k, gamma=1.0))
        for res, want in zip(grid(), at_digits(series, 64)):
            assert res.cancellation_ratio > 1e8
            assert res.value == pytest.approx(want, rel=1e-12, abs=0)

    @needs_dd
    @pytest.mark.parametrize("case", ["pdf-tail", "asep"])
    def test_uncompensated_dd_pass_within_its_bound(self, case, monkeypatch):
        # the dd pass sums without compensation; its rounding, the sums'
        # included, stays within _ERR_SAFETY _DD_EPS sum|t_m| of the same pass
        # at 60 digits
        if case == "pdf-tail":
            p = TwdpParams(k=20.0, gamma=1.0)
            r = np.linspace(2.5, 3.5, 5) * math.sqrt(p.omega)
            module, series = dist, lambda be: _pdf_pass(p, r, be)
        else:
            p, mod = TwdpParams(k=14.0, gamma=1.0), ModulationSpec(16)
            g0 = 10.0 ** (np.arange(0.0, 41.0, 5.0) / 10.0)
            module, series = asep, lambda be: _asep_pass(p, mod, g0, be)
        sums = []

        def keep(pref, s, *rest):
            sums.append(pref * s)
            return specfun._pass_result(pref, s, *rest)

        monkeypatch.setattr(module, "_pass_result", keep)
        _, _, n, _, ratio, ok = series(specfun._arith_dd())
        assert ok.all() and (ratio > 1e6).all()
        with mp.workdps(60):
            _, _, n_ref, *_ = series(_arith_mp())
            assert list(n) == list(n_ref)
            for i, want in enumerate(sums[1]):
                got = specfun._to_mpf(sums[0].hi[i]) + specfun._to_mpf(sums[0].lo[i])
                bound = specfun._ERR_SAFETY * specfun._DD_EPS * ratio[i]
                assert abs(got - want) <= bound * abs(want)

    @needs_dd
    def test_ladder_against_50_digit_mpmath(self):
        # both sides of the small-x branch, and far up the ladder
        x = np.array([0.0, 1e-3, 0.3, 0.5, 2.0, 30.0, 300.0])
        rows = _ive_ladder(x, 20, specfun._arith_dd())
        with mp.workdps(50):
            ref = _ive_ladder(x, 20, _arith_mp())
            for nu in range(21):
                for j, want in enumerate(ref[nu]):
                    got = specfun._to_mpf(rows.hi[nu, j]) + specfun._to_mpf(rows.lo[nu, j])
                    assert abs(got - want) <= 1e-36 * want

    @needs_dd
    def test_k14_needs_no_mpmath(self, monkeypatch):
        def unavailable(*args):
            raise AssertionError("mpmath arithmetic called")

        p = TwdpParams(k=14.0, gamma=1.0)
        cases = [rescue_case(kind, p) for kind in ("pdf", "pdf-tail", "cdf", "mgf")]
        refs = [at_digits(series) for _, series in cases]
        monkeypatch.setattr(specfun, "_arith_mp", unavailable)
        for (grid, _), ref in zip(cases, refs):
            assert [res.value for res in grid()] == pytest.approx(list(ref), rel=1e-12, abs=0)

    @needs_dd
    def test_past_dd_bound_escalates_to_mpmath(self, caplog):
        # the dd pass measures a 4.4e24 cancellation, past what it vouches for
        caplog.set_level(logging.DEBUG, logger="twdp")
        p = TwdpParams(k=40.0, gamma=0.0)
        gamma0 = 10.0
        res = mgf_series(p, gamma0, -10.0)
        assert [rec.getMessage().rsplit("; ", 1)[1] for rec in caplog.records] == [
            "rerunning in dd arithmetic", "rerunning at 48 digits in mp arithmetic"]
        assert res.value == pytest.approx(mgf_closed(p, gamma0, -10.0), rel=1e-11, abs=0)


def test_stop_waits_out_a_rising_hump(monkeypatch):
    # at K=8, Gamma=0, x = 58.6 the cdf terms climb through 1e-12 of the sum
    # to a hump at m = 14, past the hump guard of 11 terms; a stop on that
    # rising edge dropped 7e-12 of the value
    p = TwdpParams(k=8.0, gamma=0.0)
    r = 2.551568472546093
    value = cdf(p, r).value
    x = np.array([r * r / (2 * p.sigma2)], dtype=np.longdouble)
    monkeypatch.setattr(specfun, "_REL_TOL", 1e-30)  # the reference sums to 50 digits
    ref = at_digits(lambda be: _cdf_pass(p, x, be))[0]
    assert value == pytest.approx(ref, rel=1e-13, abs=0)
