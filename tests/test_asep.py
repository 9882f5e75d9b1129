"""M-PSK symbol error probability: series, quadrature, and asymptote."""

import functools
import logging
import math
import re

import mpmath as mp
import numpy as np
import pytest

from twdp import asep
from twdp import (
    CancellationLossError,
    InvalidParameterError,
    ModulationSpec,
    SeriesDivergenceError,
    TwdpParams,
    asep_asymptotic,
    asep_exact,
    asep_exact_grid,
    asep_quadrature,
    pdf,
)

from twdp import specfun
from twdp.specfun import _arith_mp, run_with_rescue

needs_dd = pytest.mark.skipif(specfun._arith_dd() is None,
                              reason="the dd tier needs x87 80-bit long doubles")

from conftest import FIGURE_SETS, rayleigh_bpsk, rayleigh_mpsk, rician_mpsk_quad


class TestModulationSpec:
    def test_cached_constant(self):
        for m in (2, 4, 8, 16, 3):
            spec = ModulationSpec(m)
            assert spec.sin2_pim == pytest.approx(math.sin(math.pi / m) ** 2, rel=1e-16, abs=0)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            ModulationSpec(1)


@functools.cache
def bracket_reference(m_order: int, y0: float, m: int) -> tuple:
    """The order-m bracket factors at 50 digits: 2F1(3/2, 1+m; 2; -y0/x0) by
    mpmath's hyp2f1, and F1(3/2; 1/2, 1+m; 5/2; x0, -y0) as 3/2 times its
    Euler integral by mp.quad, x0 = sin^2(pi/M).  The integral is taken in
    s = sqrt(1 - t), which removes the endpoint singularity at t = 1 for
    M = 2, with breakpoints down to the scale of the integrand's peak near
    t = 0."""
    x0 = ModulationSpec(m_order).sin2_pim
    with mp.workdps(60):
        x, y = mp.mpf(x0), mp.mpf(y0)
        f2f1 = mp.hyp2f1(1.5, 1 + m, 2, -mp.mpf(y0 / x0))
        pts, c = [mp.mpf(1)], 1 / ((1 + m) * y)
        while c < 1:
            pts.append(mp.sqrt(1 - c))
            c *= 8

        def euler(s):
            t = 1 - s * s
            # s (1 - x t)^(-1/2), 1 - x t = (1 - x) + x s^2 exactly as s -> 0
            w = s / mp.sqrt((1 - x) + x * s * s) if s else mp.mpf(x == 1)
            return 2 * w * mp.sqrt(t) * (1 + y * t) ** -(1 + m)

        f1 = 1.5 * mp.quad(euler, [0] + pts[::-1])
    return f2f1, f1


class TestBracketFamily:
    """The error-rate bracket factors of every tier against 50-digit mpmath
    values computed without the recurrence."""

    ORDERS = (0, 1, 2, 10, 100, 499)
    Y0 = (1e-8, 1e-6, 1e-3, 1.0, 1e4)

    @pytest.mark.parametrize("tier", ["longdouble", pytest.param("dd", marks=needs_dd), "mp48"])
    @pytest.mark.parametrize("m_order", [2, 4, 8, 16])
    def test_against_50_digit_mpmath(self, tier, m_order):
        # within 256 units of each arithmetic's last place, u = 2^-64 for long
        # double, u^2 for dd and 2^-163 at 48 digits; the recurrence's
        # rounding grows to about 130 u over 500 orders
        x0 = ModulationSpec(m_order).sin2_pim
        y0 = np.array(self.Y0)
        with mp.workdps(48):
            be, u, exact = {
                "longdouble": (specfun._ARITH_LD, 2.0**-64, specfun._to_mpf),
                "dd": (specfun._arith_dd(), 2.0**-128,
                       lambda v: specfun._to_mpf(v.hi) + specfun._to_mpf(v.lo)),
            }.get(tier) or (_arith_mp(), 2.0**-mp.mp.prec, lambda v: v)
            next_order = asep._bracket_family(x0, y0 / x0, y0, be)
            for m in range(max(self.ORDERS) + 1):
                out = next_order(np.ones(len(y0), dtype=bool))
                if m not in self.ORDERS:
                    continue
                for i, y in enumerate(self.Y0):
                    for got, want in zip(out[:, i], bracket_reference(m_order, y, m)):
                        assert abs(exact(got) / want - 1) <= 256 * u, (m, y)


class TestRayleighClosedForms:
    def test_bpsk_exact_and_quadrature(self):
        p = TwdpParams(k=0.0, gamma=0.0)
        mod = ModulationSpec(2)
        for g0 in (1.0, 10.0, 316.23):
            ref = rayleigh_bpsk(g0)
            assert asep_exact(p, mod, g0).value == pytest.approx(ref, rel=1e-12, abs=0)
            assert asep_quadrature(p, mod, g0) == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("m_order", [2, 4, 8, 16])
    def test_mpsk_closed_form(self, m_order):
        p = TwdpParams(k=0.0, gamma=0.0)
        mod = ModulationSpec(m_order)
        for g0 in (2.0, 50.0, 1e3):
            ref = rayleigh_mpsk(m_order, g0)
            assert asep_exact(p, mod, g0).value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_zero_snr_limit(self):
        # approach to 1/2 goes like sqrt(gamma0)
        p = TwdpParams(k=3.0, gamma=0.7)
        assert asep_quadrature(p, ModulationSpec(2), 1e-6) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("m_order", [2, 16])
    def test_quadrature_at_low_snr(self, m_order):
        # the integrand climbs from 0 within a layer at theta = 0 whose width
        # shrinks like sqrt(gamma0); unresolved, quad returns (M-1)/M
        mod = ModulationSpec(m_order)
        for db in range(-40, -201, -20):
            g0 = 10.0 ** (db / 10)
            assert asep_quadrature(TwdpParams(k=0.0, gamma=0.0), mod, g0) == pytest.approx(
                rayleigh_mpsk(m_order, g0), rel=1e-10, abs=0)
            for k, g in ((8.0, 0.5), (14.0, 1.0)):
                p = TwdpParams(k=k, gamma=g)
                assert asep_quadrature(p, mod, g0) == pytest.approx(
                    asep_exact(p, mod, g0).value, rel=1e-10, abs=0)


@pytest.mark.parametrize("m_order", [2, 4, 16])
def test_rician_quadrature_oracle_at_low_snr(m_order):
    # the tests' own quadrature needs the same breakpoints as asep_quadrature:
    # without them it returned 0.5000000000000034 at K=0, M=2, -100 dB
    for db in range(-40, -121, -20):
        g0 = 10.0 ** (db / 10)
        assert rician_mpsk_quad(0.0, m_order, g0) == pytest.approx(
            rayleigh_mpsk(m_order, g0), rel=1e-11, abs=0)


class TestExactVsQuadrature:
    def test_spec_example_point(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        mod = ModulationSpec(4)
        e = asep_exact(p, mod, 10 ** 2.5).value
        q = asep_quadrature(p, mod, 10 ** 2.5)
        assert abs(e - q) / q <= 1e-9

    @pytest.mark.parametrize("k,g", FIGURE_SETS)
    def test_sample_grid(self, k, g):
        p = TwdpParams(k=k, gamma=g)
        for m_order in (2, 8):
            mod = ModulationSpec(m_order)
            for db in (0.0, 20.0, 40.0):
                g0 = 10.0 ** (db / 10.0)
                e = asep_exact(p, mod, g0).value
                q = asep_quadrature(p, mod, g0)
                assert abs(e - q) / q <= 1e-8

    def test_rician_independent_oracle(self):
        # Rician MGF route written from scratch in the test suite
        p = TwdpParams(k=8.0, gamma=0.0)
        mod = ModulationSpec(4)
        ref = rician_mpsk_quad(8.0, 4, 100.0)
        assert asep_quadrature(p, mod, 100.0) == pytest.approx(ref, rel=1e-10, abs=0)
        assert asep_exact(p, mod, 100.0).value == pytest.approx(ref, rel=1e-9, abs=0)

    def test_result_bounds_and_decrease(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        for m_order in (2, 16):
            mod = ModulationSpec(m_order)
            vals = [asep_exact(p, mod, 10 ** (db / 10)).value for db in range(0, 45, 5)]
            assert all(0.0 < v <= (m_order - 1) / m_order for v in vals)
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_larger_m_is_worse(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        g0 = 100.0
        vals = [asep_exact(p, ModulationSpec(m), g0).value for m in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAsymptotic:
    def test_rayleigh_bpsk_high_snr_constant(self):
        # K = 0, M = 2 reduces to 1/(4 gamma0)
        p = TwdpParams(k=0.0, gamma=0.0)
        mod = ModulationSpec(2)
        for g0 in (10.0, 1e3, 1e6):
            assert asep_asymptotic(p, mod, g0) == pytest.approx(1.0 / (4.0 * g0), rel=1e-14, abs=0)

    def test_rician_reduction_formula(self):
        # Gamma = 0 leaves the angle factor times (1+K) e^-K / (2 pi g0)
        k, g0, m_order = 8.0, 50.0, 4
        p = TwdpParams(k=k, gamma=0.0)
        angle = (math.pi - math.pi / m_order + 0.5 * math.sin(2 * math.pi / m_order))
        ref = (1 + k) / (2 * math.pi * g0) * angle / math.sin(math.pi / m_order) ** 2 * math.exp(-k)
        value = asep_asymptotic(p, ModulationSpec(m_order), g0)
        assert value == pytest.approx(ref, rel=1e-13, abs=0)

    def test_unit_diversity_slope(self):
        p = TwdpParams(k=14.0, gamma=1.0)
        mod = ModulationSpec(8)
        assert asep_asymptotic(p, mod, 1e4) / asep_asymptotic(p, mod, 1e5) == pytest.approx(
            10.0, rel=1e-12, abs=0
        )

    def test_ratio_to_exact_tends_to_one(self):
        p = TwdpParams(k=14.0, gamma=1.0)
        mod = ModulationSpec(2)
        ratios = [
            asep_asymptotic(p, mod, g0) / asep_exact(p, mod, g0).value
            for g0 in (1e2, 1e3, 1e4, 1e5)
        ]
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_huge_k_stays_finite(self):
        v = asep_asymptotic(TwdpParams(k=600.0, gamma=1.0), ModulationSpec(2), 1e3)
        assert math.isfinite(v) and v > 0.0

    def test_overflow_raises(self):
        # it grows like 1/gamma0: finite near the bottom of the normal range,
        # past the double range at a subnormal gamma0
        p, mod = TwdpParams(k=3.0, gamma=0.5), ModulationSpec(16)
        assert math.isfinite(asep_asymptotic(p, mod, 1e-307))
        with pytest.raises(InvalidParameterError, match="overflows double"):
            asep_asymptotic(p, mod, 1e-320)


class TestOrderings:
    def test_gamma_degrades_performance(self):
        g0 = 1e3
        for m_order in (2, 4, 8, 16):
            mod = ModulationSpec(m_order)
            worse = asep_exact(TwdpParams(k=8.0, gamma=0.5), mod, g0).value
            better = asep_exact(TwdpParams(k=8.0, gamma=0.0), mod, g0).value
            assert worse > better

    def test_hyper_rayleigh_regime(self):
        g0 = 1e3
        for m_order in (2, 4, 8, 16):
            mod = ModulationSpec(m_order)
            twdp = asep_exact(TwdpParams(k=14.0, gamma=1.0), mod, g0).value
            rayleigh = asep_exact(TwdpParams(k=0.0, gamma=0.0), mod, g0).value
            assert twdp > rayleigh


class TestDiagnostics:
    def test_truncation_below_1e6_within_measured_budget(self, rel_tol_1e6):
        # the figure-grid worst case lands at 89 terms (see decisions notes);
        # guard against regressions past that
        p = TwdpParams(k=14.0, gamma=1.0)
        res = asep_exact(p, ModulationSpec(2), 10 ** 3.5)
        assert res.trunc_estimate < 1e-6
        assert res.terms_used <= 92

    def test_cancellation_loss_raised_beyond_precision_cap(self):
        # the hump sits near m = 180 here; the recorded cancellation grows
        # with every rerun until it exceeds any supported dps
        p = TwdpParams(k=90.0, gamma=1.0)
        with pytest.raises(CancellationLossError) as err:
            asep_exact(p, ModulationSpec(2), 1.0)
        assert err.value.cancellation_ratio > 1e6

    def test_quadrature_fallback_agrees_where_series_flags(self):
        p = TwdpParams(k=130.0, gamma=1.0)
        v = asep_quadrature(p, ModulationSpec(2), 10.0)
        assert 0.0 < v < 0.5

    def test_invalid_gamma0(self):
        with pytest.raises(InvalidParameterError):
            asep_exact(TwdpParams(k=1.0, gamma=0.0), ModulationSpec(2), 0.0)

    @pytest.mark.parametrize("m_order", [2, 16])
    def test_bracket_argument_past_double_range(self, m_order):
        # (1+K)/(gamma0 sin^2(pi/M)) overflows a double at gamma0 = 1e-320:
        # that point alone gets its error, and no pass runs on it
        p, mod = TwdpParams(k=3.0, gamma=0.5), ModulationSpec(m_order)
        lost, kept = asep_exact_grid(p, mod, [1e-320, 1.0])
        assert isinstance(lost, SeriesDivergenceError) and lost.terms_used == 0
        assert "overflows double" in str(lost)
        assert kept == asep_exact(p, mod, 1.0)


class TestRescueTiers:
    """Rescued passes rerun in double-longdouble arithmetic, bracket family
    and outer sum alike; only points the dd pass cannot vouch for rerun in
    mpmath."""

    @pytest.mark.parametrize("k", [14.0, 20.0, 25.0])
    def test_against_50_digit_mpmath_series(self, k):
        p = TwdpParams(k=k, gamma=1.0)
        for m_order in (2, 16):
            mod = ModulationSpec(m_order)
            for db in (0.0, 20.0, 40.0):
                g0 = 10.0 ** (db / 10.0)
                value = asep_exact(p, mod, g0).value
                with mp.workdps(50):
                    ref, *_, ok = asep._asep_pass(p, mod, np.array([g0]), _arith_mp())
                assert ok.all()
                assert value == pytest.approx(ref[0], rel=1e-12, abs=0)
                assert value == pytest.approx(asep_quadrature(p, mod, g0), rel=1e-8, abs=0)

    @needs_dd
    def test_k14_needs_no_mpmath_brackets(self, monkeypatch):
        def unavailable(*args):
            raise AssertionError("mpmath arithmetic called")

        monkeypatch.setattr(specfun, "_arith_mp", unavailable)
        p = TwdpParams(k=14.0, gamma=1.0)
        for m_order in (2, 16):
            mod = ModulationSpec(m_order)
            for g0 in (1.0, 1e4):
                res = asep_exact(p, mod, g0)
                assert res.cancellation_ratio > 1e6  # a rescued pass
                assert res.value == pytest.approx(asep_quadrature(p, mod, g0), rel=1e-8, abs=0)

    @needs_dd
    def test_past_dd_bound_mpmath_brackets(self, caplog):
        caplog.set_level(logging.DEBUG, logger="twdp")
        # the dd pass measures a 9.8e23 cancellation: 41 digits, rounded up to 48
        p, mod = TwdpParams(k=30.0, gamma=1.0), ModulationSpec(2)
        value = asep_exact(p, mod, 100.0).value
        mp_runs = [r.getMessage() for r in caplog.records if "mp arithmetic" in r.getMessage()]
        assert len(mp_runs) == 1 and "rerunning at 48 digits in mp arithmetic" in mp_runs[0]
        assert value == pytest.approx(asep_quadrature(p, mod, 100.0), rel=1e-8, abs=0)

    @needs_dd
    def test_tier_rule(self):
        # a stub series: point 0 does not cancel, point 1 cancels within
        # the dd bound, points 2-4 past it (40, 41 and 42 digits, run at 40,
        # 48 and 48), and point 5, a value far below double's smallest
        # normal, within it: the tier follows the ratio alone
        ratio = np.array([1.0, 1e15, 1e23, 1e24, 1e25, 1e12])
        size = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 4.5e-320])
        seen = []

        def pass_fn(be):
            pts = np.arange(6) if be.points is None else be.points
            seen.append((be.name, pts.tolist()))
            n = len(pts)
            ok = np.ones(n, dtype=bool)
            return size[pts], n, np.ones(n, dtype=np.int64), np.zeros(n), ratio[pts], ok

        out = run_with_rescue(pass_fn, 6)
        assert seen == [("longdouble", [0, 1, 2, 3, 4, 5]), ("dd", [1, 2, 3, 4, 5]),
                        ("mp40", [2]), ("mp48", [3, 4])]
        assert [res.value for res in out] == size.tolist()
        assert [(res.tier, res.passes) for res in out] == [
            ("longdouble", 1), ("dd", 2), ("mp40", 3), ("mp48", 3), ("mp48", 3), ("dd", 2)]

    @needs_dd
    def test_unconverged_point_is_reported_alone(self):
        # a stub series: point 1 runs out of terms in the long-double pass,
        # point 2 in the dd pass; neither is rerun, and the points around
        # them keep their results
        ratio = np.array([1.0, 1e15, 1e15, 1e15])
        seen = []

        def pass_fn(be):
            pts = np.arange(4) if be.points is None else be.points
            seen.append((be.name, pts.tolist()))
            n = len(pts)
            ok = pts != (1 if be.name == "longdouble" else 2)
            terms = np.where(ok, 7, specfun._MAX_TERMS)
            return np.ones(n), int(terms.sum()), terms, np.zeros(n), ratio[pts], ok

        out = run_with_rescue(pass_fn, 4, what=lambda i: f"point {i}")
        assert seen == [("longdouble", [0, 1, 2, 3]), ("dd", [2, 3])]
        assert [type(res).__name__ for res in out] == [
            "SeriesResult", "SeriesDivergenceError", "SeriesDivergenceError", "SeriesResult"]
        assert str(out[1]) == f"point 1 did not converge in {specfun._MAX_TERMS} terms"
        assert out[1].terms_used == out[2].terms_used == specfun._MAX_TERMS
        assert [(res.tier, res.terms_used) for res in (out[0], out[3])] == [
            ("longdouble", 7), ("dd", 7)]

    @needs_dd
    def test_result_reports_tier_and_passes(self):
        rayleigh = pdf(TwdpParams(k=0.0, gamma=0.0), 1.0)
        assert (rayleigh.tier, rayleigh.passes) == ("longdouble", 1)
        k14 = asep_exact(TwdpParams(k=14.0, gamma=1.0), ModulationSpec(2), 100.0)
        assert (k14.tier, k14.passes) == ("dd", 2)
        k30 = asep_exact(TwdpParams(k=30.0, gamma=1.0), ModulationSpec(2), 100.0)
        assert (k30.tier, k30.passes) == ("mp48", 3)

    @needs_dd
    def test_escalation_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="twdp")
        asep_exact(TwdpParams(k=14.0, gamma=1.0), ModulationSpec(2), 100.0)
        (rec,) = caplog.records
        assert rec.name == "twdp" and rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        assert msg.startswith("asep series at K=14.0, Gamma=1.0, gamma0=100.0:")
        assert re.search(r"ratio \d\.\d\de\+\d+ in the longdouble pass", msg)
        assert msg.endswith("rerunning in dd arithmetic")
