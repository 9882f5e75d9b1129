"""The array series engine against scalar long-double loops, bit for bit,
and its mixture rescue against independent oracles.

Every series pass sums all points of a grid at once; the references in
conftest sum one point at a time in the order the arithmetic was written
before the passes became array-native.  Equality is exact: the per-point
operations are the same, only their batching differs.
"""

import logging
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twdp import (
    ModulationSpec,
    SeriesDivergenceError,
    SeriesResult,
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
from twdp.specfun import Pass, _ive_ladder

from conftest import (
    asep_pass_scalar,
    asep_series_mp,
    cdf_pass_scalar,
    cdf_series_mp,
    ive_ladder_scalar,
    mgf_mp,
    mgf_pass_scalar,
    pdf_pass_scalar,
    phase_average_pdf,
    phase_average_pdf_mp,
    rician_cdf_mp,
    to_mpf,
)

FAST = settings(max_examples=40)

# zero, subnormal and tiny arguments, and far up the ladder
ladder_args = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.2e-308, allow_subnormal=True),
    st.floats(1e-300, 2.0),
    st.floats(2.0, 1e4),
)
params = st.builds(TwdpParams, k=st.floats(0.0, 20.0), gamma=st.floats(0.0, 1.0))


def every(tier, size):
    """The pass of a tier over all `size` points of a grid."""
    return Pass(tier, np.arange(size))


def assert_pass_matches(grid_out, refs):
    """A pass against its scalar references, (value, terms_used, trunc,
    ratio) and, where a reference gives it, the converged flag; without it
    every point must converge."""
    value, terms, n, trunc, ratio, converged = grid_out
    assert terms == sum(r[1] for r in refs)
    for i, ref in enumerate(refs):
        want = ref if len(ref) == 5 else (*ref, True)
        assert (value[i], n[i], trunc[i], ratio[i], converged[i]) == want


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
    assert_pass_matches(_pdf_pass(p, r, every("longdouble", len(r))),
                        [pdf_pass_scalar(p, v) for v in r])


@FAST
@given(params, st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=6))
def test_cdf_pass_matches_scalar_loop(p, xs):
    x = np.array(xs, dtype=np.longdouble)
    assert_pass_matches(_cdf_pass(p, x, every("longdouble", len(x))),
                        [cdf_pass_scalar(p, v) for v in x])


@FAST
@given(params, st.floats(0.1, 1e3), st.lists(st.floats(-100.0, 0.0), min_size=1, max_size=6))
def test_mgf_pass_matches_scalar_loop(p, gamma0, ss):
    s = np.array(ss)
    assert_pass_matches(_mgf_series_pass(p, gamma0, s, every("longdouble", len(s))),
                        [mgf_pass_scalar(p, gamma0, v) for v in s])


@settings(max_examples=15)
@given(st.builds(TwdpParams, k=st.floats(0.0, 14.0), gamma=st.floats(0.0, 1.0)),
       st.sampled_from([2, 4, 8, 16]),
       st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5))
def test_asep_pass_matches_scalar_loop(p, m_order, dbs):
    mod = ModulationSpec(m_order)
    g0 = 10.0 ** (np.array(dbs) / 10.0)
    assert_pass_matches(_asep_pass(p, mod, g0, every("longdouble", len(g0))),
                        [asep_pass_scalar(p, mod.sin2_pim, v) for v in g0])


def test_non_finite_sum_does_not_converge():
    # a sum that overflows does not converge, though its remainder bound (0
    # after the first term) stops it; nor does one whose terms overflow long
    # double (the paper's coefficients within 500 terms at K = 1e13), and
    # that pass warns of nothing
    big = np.finfo(np.longdouble).max
    with np.errstate(over="ignore"):
        *_, ok = specfun._sum_series(lambda m: np.array([big]), 1,
                                     rest=lambda m, t: t * 0 + (np.inf if m == 0 else 0))
    assert not ok.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = np.ones(1, dtype=np.longdouble)
        *_, ok = specfun.coef_series(TwdpParams(k=1e13, gamma=0.0), -1,
                                     lambda m: (one, one), 1, 1)
    assert not ok.any()


def long_double_pass(kind, p):
    """The long-double pass of one series kind over a grid that runs from
    the terms' hump into their tails: the pdf and cdf up to r/sqrt(Omega)
    = 3.5, the MGF down to s = -100 at g0 = 10, the error rate at M = 16
    over 0:40:10 dB."""
    if kind == "pdf":
        r = np.linspace(0.1, 3.5, 8) * math.sqrt(p.omega)
        return _pdf_pass(p, r, every("longdouble", len(r)))
    if kind == "cdf":
        x = (np.linspace(0.1, 3.5, 8) * math.sqrt(p.omega)) ** 2 / (2 * p.sigma2)
        return _cdf_pass(p, x.astype(np.longdouble), every("longdouble", len(x)))
    if kind == "mgf":
        s = np.array([-100.0, -30.0, -10.0, -3.0, -1.0, -0.1])
        return _mgf_series_pass(p, 10.0, s, every("longdouble", len(s)))
    g0 = 10.0 ** (np.arange(0.0, 41.0, 10.0) / 10.0)
    return _asep_pass(p, ModulationSpec(16), g0, every("longdouble", len(g0)))


@pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf", "asep"])
@pytest.mark.parametrize("k,gamma", [(8.0, 0.0), (8.0, 0.5), (14.0, 1.0)])
def test_remainder_bound_covers_every_later_term(kind, k, gamma, monkeypatch):
    # at every order m of a pass, on the rising side of the hump as past
    # it, the bound on the rest of the sum is at least the sum of the
    # magnitudes of the later terms the pass computes; |t_m| alone is not
    # (the pdf's terms fall by more than half per order at large r, the
    # others climb their hump by more than that)
    terms, bounds = [], []
    run = specfun._sum_series

    def traced(term, size, rest, limit=specfun._MAX_TERMS):
        def t(m):
            v = term(m)
            terms.append(abs(v))
            return v

        def r(m, v):
            bounds.append(rest(m, v))
            return v * 0 + np.inf  # record every order up to the budget

        return run(t, size, r, limit)

    monkeypatch.setattr(specfun, "_sum_series", traced)
    monkeypatch.setattr(dist, "_sum_series", traced)
    long_double_pass(kind, TwdpParams(k=k, gamma=gamma))
    later = np.cumsum(np.array(terms)[::-1], axis=0)[::-1] - np.array(terms)
    assert (later <= np.array(bounds) * (1 + 1e-15)).all()


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
    """Points that rerun together in the mixture get the values they get
    when rerun alone."""

    P = TwdpParams(k=14.0, gamma=1.0)

    def test_pdf_grid(self):
        rs = np.linspace(0.2, 0.9, 8)
        grid = pdf_grid(self.P, rs)
        assert sum(res.tier == "mixture" for res in grid) >= 4
        assert list(grid) == [pdf(self.P, float(r)) for r in rs]

    def test_cdf_grid(self):
        # a curve value does not depend on the curve: before, the grid's
        # long-double sums ran on to the last point's stop
        rs = np.linspace(0.2, 3.0, 8)
        grid = cdf_grid(self.P, rs)
        assert sum(res.tier == "mixture" for res in grid) >= 2
        assert list(grid) == [cdf(self.P, float(r)) for r in rs]

    def test_mgf_series_grid(self):
        gamma0 = 1e3
        ss = [-100.0, -60.0, -30.0, -10.0]
        grid = mgf_series_grid(self.P, gamma0, ss)
        assert list(grid) == [mgf_series(self.P, gamma0, s) for s in ss]

    def test_asep_exact_grid(self):
        mod = ModulationSpec(2)
        g0s = [1e3, 2e3, 1e4]
        grid = asep_exact_grid(self.P, mod, g0s)
        assert all(res.tier == "mixture" for res in grid)
        assert list(grid) == [asep_exact(self.P, mod, g0) for g0 in g0s]

    def test_asep_exact_grid_in_one_mixture_pass(self, monkeypatch):
        # at K=30 all three points rerun, in one mixture pass
        p, mod = TwdpParams(k=30.0, gamma=1.0), ModulationSpec(2)
        g0s = [10.0 ** 1.8, 100.0, 1000.0]
        passes = TestShortcutPoints.trace_passes(monkeypatch)
        grid = asep_exact_grid(p, mod, g0s)
        assert passes == [("longdouble", [0, 1, 2]), ("mixture", [0, 1, 2])]
        assert list(grid) == [asep_exact(p, mod, g0) for g0 in g0s]

    def test_asep_exact_grid_over_a_rescued_sweep(self):
        # K=30: every point of the sweep reruns in the mixture
        p, mod = TwdpParams(k=30.0, gamma=1.0), ModulationSpec(2)
        g0s = 10.0 ** (np.arange(0.0, 41.0, 5.0) / 10.0)
        grid = asep_exact_grid(p, mod, g0s)
        assert {(res.tier, res.passes, res.cancellation_ratio) for res in grid} == {
            ("mixture", 2, 1.0)}
        assert list(grid) == [asep_exact(p, mod, g0) for g0 in g0s]

    def test_asep_mixture_pass_does_not_depend_on_the_sweep(self):
        # K=90, gamma0 = 10: the mixture pass sums the same value in the
        # same terms alone and inside the 0:40:10 dB sweep
        p, mod = TwdpParams(k=90.0, gamma=1.0), ModulationSpec(16)
        g0s = 10.0 ** (np.arange(0.0, 41.0, 10.0) / 10.0)
        value, _, n, trunc, ratio, ok = _asep_pass(p, mod, g0s, every("mixture", 5))
        alone = _asep_pass(p, mod, g0s, Pass("mixture", np.array([1])))
        assert ok.all() and (ratio == 1.0).all()
        assert (value[1], n[1], trunc[1], ratio[1], ok[1]) == tuple(
            v[0] for v in alone[:1] + alone[2:])

    def test_k40_cdf_and_mgf_grids(self):
        # left-tail cdf points and MGF points: each keeps the tier its own
        # long-double ratio calls for
        p = TwdpParams(k=40.0, gamma=0.0)
        rs = [0.01, 0.02, 0.05, 0.1, 0.2, 1.3]
        grid = cdf_grid(p, rs)
        assert {res.tier for res in grid} == {"longdouble", "mixture"}
        assert list(grid) == [cdf(p, r) for r in rs]
        gamma0 = 10.0
        ss = [-100.0, -30.0, -10.0, -8.0]
        grid = mgf_series_grid(p, gamma0, ss)
        assert any(res.tier == "mixture" for res in grid)
        assert list(grid) == [mgf_series(p, gamma0, s) for s in ss]


class TestGridIndependence:
    """A point's SeriesResult (value, terms, truncation, ratio, tier and
    passes) is the same bit for bit alone and inside a grid whose other
    points stop at other terms and rerun in the other tier."""

    GAMMA0 = 10.0
    GRIDS = {
        "pdf": [0.2, 0.7, 1.1, 1.6, 2.4, 3.0, 3.4],
        "cdf": [0.2, 0.7, 1.1, 1.6, 2.4, 3.0, 3.4],
        "mgf": [-100.0, -30.0, -10.0, -3.0, -0.5, 0.0],
        "asep": [1.0, 10.0, 100.0, 1e3, 1e4],
        "cdf-left": [0.01, 0.02, 0.05, 0.1, 0.2, 1.3],
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
        (14.0, 1.0, "mixture"),
        (20.0, 1.0, "mixture"),
    ])
    def test_long_double_and_dd(self, kind, k, gamma, tier):
        # named for the double-longdouble tier that rescued these grids
        # before the mixture
        grid, alone = self.evaluate(kind, TwdpParams(k=k, gamma=gamma))
        assert tier in {res.tier for res in grid}
        assert len({res.terms_used for res in grid}) > 1
        assert list(grid) == alone

    @pytest.mark.parametrize("kind", ["cdf-left", "mgf-k40"])
    def test_mpmath(self, kind):
        # the K=40 grids, each with long-double and mixture points, and their
        # values against 50-digit mpmath
        p = TwdpParams(k=40.0, gamma=0.0)
        grid, alone = self.evaluate(kind, p)
        assert {res.tier for res in grid} == {"longdouble", "mixture"}
        assert list(grid) == alone
        refs = ([cdf_series_mp(p, r) for r in self.GRIDS[kind]] if kind == "cdf-left" else
                [float(mgf_mp(p, self.GAMMA0, s, 50)) for s in self.GRIDS[kind]])
        assert [res.value for res in grid] == pytest.approx(refs, rel=1e-12, abs=0)


def outcome(res):
    """A grid entry in a form that compares by value, errors included."""
    return res if isinstance(res, SeriesResult) else (type(res), str(res))


class TestShortcutPoints:
    """A shortcut point (r = 0, the cdf clamp) keeps its own entry of the
    grid's result list: no pass of either tier runs on it, and the points
    around it get what they get alone.  The error rate has none: its
    subnormal gamma0 = 1e-310 rides in the passes like any other point."""

    GRIDS = {
        "pdf": (TwdpParams(k=40.0, gamma=1.0), [0.0, 0.2, 0.7, 1.0, 0.0]),
        "cdf": (TwdpParams(k=40.0, gamma=0.0), [0.0, 0.01, 0.2, 0.5, 1.3, 5.0]),
        "asep": (TwdpParams(k=30.0, gamma=1.0), [1e-310, 1.0, 10.0, 100.0]),
    }
    SHORTCUTS = {"pdf": [0, 4], "cdf": [0, 5], "asep": []}

    @staticmethod
    def evaluate(kind, p, xs):
        if kind == "pdf":
            return pdf_grid(p, xs)
        if kind == "cdf":
            return cdf_grid(p, xs)
        return asep_exact_grid(p, ModulationSpec(2), xs)

    @staticmethod
    def trace_passes(monkeypatch):
        """The (tier, points) of every pass the series modules run."""
        passes = []

        def run_with_rescue(pass_fn, value, what=str):
            def traced(ps):
                passes.append((ps.name, ps.points.tolist()))
                return pass_fn(ps)
            return specfun.run_with_rescue(traced, value, what)

        for module in (dist, asep):
            monkeypatch.setattr(module, "run_with_rescue", run_with_rescue)
        return passes

    @staticmethod
    def stub_pass(ratio, seen):
        """A series pass that returns 1 at every point, with the given
        cancellation ratio, and records its tier and points."""
        def pass_fn(ps):
            seen.append((ps.name, ps.points.tolist()))
            n = len(ps.points)
            return (np.ones(n), n, np.ones(n, dtype=np.int64), np.zeros(n), ratio[ps.points],
                    np.ones(n, dtype=bool))
        return pass_fn

    def test_shortcut_entries_keep_their_values(self):
        # points 2 and 4 cancel past long double's bound; points 1 and 3
        # are shortcuts, whose given values no pass touches
        ratio = np.array([1.0, 0.0, 1e15, 0.0, 1e24])
        seen = []
        value = np.array([math.nan, 0.5, math.nan, 0.0, math.nan])
        grid = specfun.run_with_rescue(self.stub_pass(ratio, seen), value)
        assert seen == [("longdouble", [0, 2, 4]), ("mixture", [2, 4])]
        assert grid.value.tolist() == [1.0, 0.5, 1.0, 0.0, 1.0] and not grid.lost
        assert np.isnan(value[::2]).all()  # the caller's array is not written
        entries = list(grid)
        assert entries[1::2] == [SeriesResult(0.5, 0, 0.0, 1.0, 0),
                                 SeriesResult(0.0, 0, 0.0, 1.0, 0)]
        assert [res.tier for res in entries[1::2]] == ["none", "none"]
        assert [(res.tier, res.passes) for res in entries[::2]] == [
            ("longdouble", 1), ("mixture", 2), ("mixture", 2)]

    def test_all_shortcut_grid_runs_no_pass(self, monkeypatch):
        seen = []
        grid = specfun.run_with_rescue(self.stub_pass(np.ones(2), seen), np.array([0.0, 1.0]))
        assert seen == [] and not grid.lost
        assert list(grid) == [SeriesResult(0.0, 0, 0.0, 1.0, 0), SeriesResult(1.0, 0, 0.0, 1.0, 0)]
        passes = self.trace_passes(monkeypatch)
        for kind in ("pdf", "cdf"):
            p, xs = self.GRIDS[kind]
            grid = self.evaluate(kind, p, [xs[i] for i in self.SHORTCUTS[kind]])
            assert all(res.passes == 0 for res in grid)
        # a point no series can sum raises before any pass, wherever it lies
        with pytest.raises(SeriesDivergenceError, match="r=1.0 cannot be summed"):
            pdf_grid(TwdpParams(k=1e10, gamma=0.0), [0.0, 0.5, 1.0])
        with pytest.raises(SeriesDivergenceError, match="cannot be summed"):
            cdf_grid(TwdpParams(k=1e6, gamma=0.0), [0.0, 1e-3, 0.5])
        assert passes == []

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "asep"])
    def test_mixed_grid(self, kind, monkeypatch):
        p, xs = self.GRIDS[kind]
        passes = self.trace_passes(monkeypatch)
        grid = self.evaluate(kind, p, xs)
        assert [name for name, _ in passes] == ["longdouble", "mixture"]
        assert passes[0][1] == [i for i in range(len(xs)) if i not in self.SHORTCUTS[kind]]
        assert [outcome(res) for res in grid] == [
            outcome(self.evaluate(kind, p, [x])[0]) for x in xs]


class TestGridColumns:
    """A SeriesGrid holds one array per SeriesResult field: at every point,
    shortcut, long-double, mixture or lost, each column equals the field of
    its entry, and a lost point's entry is its error."""

    CASES = {
        # r = 0, long-double and mixture points, and a tail past the zero bound
        "pdf": lambda: pdf_grid(TwdpParams(k=14.0, gamma=1.0), [0.0, 0.05, 0.2, 0.7, 3.0, 1e6]),
        # r = 0, the left tail in the mixture, the bulk, and the clamp at r = 5
        "cdf": lambda: cdf_grid(TwdpParams(k=40.0, gamma=0.0), [0.0, 0.01, 0.2, 0.5, 1.3, 5.0]),
        "mgf": lambda: mgf_series_grid(TwdpParams(k=40.0, gamma=0.0), 10.0,
                                       [-100.0, -30.0, -10.0, -8.0, -4.0, -1.0, 0.0]),
        "asep": lambda: asep_exact_grid(TwdpParams(k=14.0, gamma=1.0), ModulationSpec(16),
                                        [1e-310, 1.0, 10.0, 1e3, 1e4]),
        # past the mixture's budget: every point is lost
        "asep-lost": lambda: asep_exact_grid(TwdpParams(k=1e4, gamma=0.0), ModulationSpec(2),
                                             [1.0, 10.0]),
    }
    PASSES = {
        "pdf": [0, 1, 1, 2, 2, 0],
        "cdf": [0, 2, 2, 2, 1, 0],
        "mgf": [2, 2, 2, 2, 2, 1, 1],
        "asep": [1, 1, 2, 2, 2],
        "asep-lost": [2, 2],
    }

    @pytest.mark.parametrize("kind", list(CASES))
    def test_columns_are_the_entries_fields(self, kind):
        grid = self.CASES[kind]()
        entries = list(grid)
        assert len(entries) == len(grid) == len(grid.value)
        assert grid.passes.tolist() == self.PASSES[kind]
        for i, res in enumerate(entries):
            if i in grid.lost:
                assert grid.lost[i] is res and isinstance(res, SeriesDivergenceError)
                assert math.isnan(grid.value[i]) and grid.terms_used[i] == res.terms_used
                continue
            assert (grid.value[i], grid.terms_used[i], grid.trunc_estimate[i],
                    grid.cancellation_ratio[i], grid.passes[i]) == (
                res.value, res.terms_used, res.trunc_estimate, res.cancellation_ratio, res.passes)
            assert res.tier == ("none", "longdouble", "mixture")[res.passes]
        assert sorted(grid.lost) == [i for i, res in enumerate(entries)
                                     if isinstance(res, SeriesDivergenceError)]
        assert (kind == "asep-lost") == bool(grid.lost)
        # negative indices count from the end, as in a list
        assert outcome(grid[-1]) == outcome(entries[-1])

    def test_shortcut_columns(self):
        # r = 0 and the zero bound give 0, the clamp 1: no terms, no passes,
        # no truncation and a ratio of 1
        for grid, at, want in ((self.CASES["pdf"](), [0, 5], [0.0, 0.0]),
                               (self.CASES["cdf"](), [0, 5], [0.0, 1.0])):
            assert grid.value[at].tolist() == want
            assert grid.terms_used[at].tolist() == grid.passes[at].tolist() == [0, 0]
            assert grid.trunc_estimate[at].tolist() == [0.0, 0.0]
            assert grid.cancellation_ratio[at].tolist() == [1.0, 1.0]


def rescue_case(kind, p):
    """A grid of points whose long-double sums cannot be trusted from K = 14
    on: the public grid evaluation on it, and mpmath values at its points,
    at 50 digits (64 in the pdf's upper tail): the pdf's phase average, the
    paper's cdf and error-rate series (M = 16) and the MGF's closed form."""
    if kind == "asep":
        g0 = 10.0 ** (np.arange(0.0, 41.0, 10.0) / 10.0)
        return (lambda: asep_exact_grid(p, ModulationSpec(16), g0),
                [asep_series_mp(p, 16, v) for v in g0])
    if kind == "mgf":
        gamma0 = 10.0
        s = np.linspace(-10.0, -3.0, 6)
        return (lambda: mgf_series_grid(p, gamma0, s),
                [float(mgf_mp(p, gamma0, v, 50)) for v in s])
    if kind == "pdf":
        r = np.linspace(0.7, 1.8, 6)
        return lambda: pdf_grid(p, r), [phase_average_pdf_mp(p, v, 50) for v in r]
    if kind == "pdf-tail":
        # the upper tail down to 4.5e-208 at K=14: held to the relative
        # target however small the value
        r = np.append(np.linspace(3.0, 3.5, 6), 7.0) * math.sqrt(p.omega)
        return lambda: pdf_grid(p, r), [phase_average_pdf_mp(p, v, 64) for v in r]
    # the K=40 left tail and the bulk
    r = np.array([0.01, 0.05, 0.1, 0.2, 0.8, 0.9]) if p.k == 40.0 else np.linspace(0.2, 0.8, 6)
    return lambda: cdf_grid(p, r), [cdf_series_mp(p, v) for v in r]


class TestDoubleLongdoubleRescue:
    """Points the long-double pass cannot vouch for, rerun as the positive
    mixture.  (The class is named for the double-longdouble tier that
    rescued them before the mixture.)"""

    @pytest.mark.parametrize("kind,k,gamma", [(kind, k, 1.0) for k in (14.0, 20.0)
                                              for kind in ("pdf", "cdf", "mgf")]
                             + [("cdf", 40.0, 0.0)])
    def test_against_50_digit_mpmath(self, kind, k, gamma):
        grid, refs = rescue_case(kind, TwdpParams(k=k, gamma=gamma))
        for res, want in zip(grid(), refs):
            assert (res.tier, res.cancellation_ratio) == ("mixture", 1.0)
            assert res.value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [14.0, 20.0, 30.0])
    def test_pdf_tail_against_64_digit_mpmath(self, k):
        grid, refs = rescue_case("pdf-tail", TwdpParams(k=k, gamma=1.0))
        results = grid()
        for i, (res, want) in enumerate(zip(results, refs)):
            if k == 30.0 and i == len(results) - 1:
                # r/sqrt(Omega) = 7 underflows double at K = 30: a shortcut,
                # and the 64-digit quadrature agrees
                assert (res.tier, res.passes, want) == ("none", 0, 0.0)
            else:
                assert res.tier == "mixture"
            assert res.value == pytest.approx(want, rel=1e-12, abs=0)

    KINDS = ["pdf", "pdf-tail", "cdf", "mgf", "asep"]

    @pytest.mark.parametrize(
        "kind,k,gamma,tier",
        [(kind, 20.0, 1.0, "mixture") for kind in KINDS]
        + [(kind, 8.0, 0.5, "longdouble") for kind in KINDS],
        ids=KINDS + [f"{kind}-k8" for kind in KINDS])
    def test_truncation_estimate_bounds_the_error(self, kind, k, gamma, tier):
        # in either tier, a point's trunc_estimate bounds its omitted
        # remainder, and it stops within a long double's rounding of its value
        grid, refs = rescue_case(kind, TwdpParams(k=k, gamma=gamma))
        results = grid()
        assert tier in {res.tier for res in results}
        for res, want in zip(results, refs):
            assert res.trunc_estimate <= np.finfo(np.longdouble).eps
            assert abs(res.value - want) <= (res.trunc_estimate + 1e-12) * abs(want)

    def test_pdf_past_its_49_terms_goes_to_the_mixture(self, caplog):
        # the pdf pass stops at the end of its 48-order ladders
        caplog.set_level(logging.DEBUG, logger="twdp")
        p = TwdpParams(k=20.0, gamma=1.0)
        r = np.array([3.2, 3.5]) * math.sqrt(p.omega)
        _, _, n, _, _, converged = _pdf_pass(p, r, every("longdouble", len(r)))
        assert n.tolist() == [49, 49] and not converged.any()
        for res, want in zip(pdf_grid(p, r), phase_average_pdf(p, r)):
            assert (res.tier, res.passes) == ("mixture", 2)
            assert res.value == pytest.approx(want, rel=1e-11, abs=0)
        assert [rec.getMessage() for rec in caplog.records] == [
            f"envelope pdf at r={v}: no convergence in 49 terms in the longdouble pass; "
            "rerunning in the mixture" for v in r]

    def test_ladder_against_50_digit_mpmath(self):
        # from zero and a subnormal double up to 1e5, and far up the ladder;
        # below the long double's normal range only its absolute spacing holds
        x = np.array([0.0, 5e-324, 1e-300, 1e-30, 1e-3, 0.3, 0.5, 2.0, 30.0, 300.0, 1e3, 1e5])
        rows = _ive_ladder(x, 48)
        tiny = to_mpf(np.finfo(np.longdouble).smallest_normal)
        with mp.workdps(50):
            for nu in range(49):
                for j, v in enumerate(x):
                    want = mp.besseli(nu, v) * mp.exp(-v)
                    bound = 64 * 2.0**-64 * max(want, tiny)
                    assert abs(to_mpf(rows[nu, j]) - want) <= bound

    def test_k14_needs_no_mpmath(self, monkeypatch):
        def unavailable(*args):
            raise AssertionError("mpmath called")

        p = TwdpParams(k=14.0, gamma=1.0)
        cases = [rescue_case(kind, p) for kind in ("pdf", "pdf-tail", "cdf", "mgf")]
        monkeypatch.setattr(mp, "mpf", unavailable)
        for grid, refs in cases:
            results = grid()
            assert any(res.tier == "mixture" for res in results)
            assert [res.value for res in results] == pytest.approx(list(refs), rel=1e-12, abs=0)

    def test_rerun_logged_with_the_long_double_ratio(self, caplog):
        # the long-double pass measures a cancellation past what it vouches for
        caplog.set_level(logging.DEBUG, logger="twdp")
        p = TwdpParams(k=40.0, gamma=0.0)
        gamma0 = 10.0
        res = mgf_series(p, gamma0, -10.0)
        (rec,) = caplog.records
        assert rec.getMessage().startswith("mgf series at s=-10.0: cancellation ratio ")
        assert rec.getMessage().endswith("in the longdouble pass; rerunning in the mixture")
        assert res.value == pytest.approx(mgf_closed(p, gamma0, -10.0), rel=1e-11, abs=0)


def test_stop_waits_out_a_rising_hump():
    # at K=8, Gamma=0, x = 58.6 the cdf terms climb through 1e-12 of the sum
    # to a hump at m = 14; the e^(x/2) bound on the Laguerre factor keeps the
    # stop past it (with 1 in its place the value came out 7e-12 high)
    p = TwdpParams(k=8.0, gamma=0.0)
    r = 2.551568472546093
    res = cdf(p, r)
    assert res.tier == "longdouble"
    assert res.value == pytest.approx(rician_cdf_mp(p.k, p.sigma2, r), rel=1e-13, abs=0)
