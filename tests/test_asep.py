"""M-PSK symbol error probability: series, quadrature, and asymptote."""

import functools
import logging
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from twdp import asep
from twdp import (
    InvalidParameterError,
    ModulationSpec,
    QuadratureError,
    SeriesDivergenceError,
    TwdpParams,
    asep_asymptotic,
    asep_exact,
    asep_exact_grid,
    asep_quadrature,
    asep_quadrature_grid,
    pdf,
)

from twdp import specfun
from twdp.specfun import Pass, run_with_rescue

from conftest import (
    FIGURE_SETS,
    asep_oracle,
    asep_series_mp,
    rayleigh_bpsk,
    rayleigh_mpsk,
    rician_mpsk_quad,
    to_mpf,
)


class TestModulationSpec:
    def test_cached_constant(self):
        for m in (2, 4, 8, 16, 3):
            spec = ModulationSpec(m)
            assert spec.sin2_pim == pytest.approx(math.sin(math.pi / m) ** 2, rel=1e-16, abs=0)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            ModulationSpec(1)


@functools.cache
def bracket_reference(m_order: int, y0, m: int) -> tuple:
    """The order-m bracket factors at 50 digits: 2F1(3/2, 1+m; 2; -y0/x0) by
    mpmath's hyp2f1, and F1(3/2; 1/2, 1+m; 5/2; x0, -y0) as 3/2 times its
    Euler integral by mp.quad, x0 = sin^2(pi/M), both at the same exact y0
    (a float or an mpf).
    The integral is taken in s = sqrt(1 - t), which removes the endpoint
    singularity at t = 1 for M = 2, with breakpoints down to the scale of
    the integrand's peak near t = 0."""
    x0 = ModulationSpec(m_order).sin2_pim
    with mp.workdps(60):
        x, y = mp.mpf(x0), mp.mpf(y0)
        f2f1 = mp.hyp2f1(1.5, 1 + m, 2, -y / x)
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
    """The error-rate factors B_m against the paper's bracket, (sin(pi/M)
    rho/3) (3 pi/(2 sin^3(pi/M)) 2F1 - F1), from 50-digit mpmath values
    computed without the recurrence, at rho = y0 as the code takes it."""

    ORDERS = (0, 1, 2, 10, 100, 499)
    Y0 = (1e-8, 1e-6, 1e-3, 1.0, 1e4, 1e30)

    # the one arithmetic the bracket family runs in
    @pytest.mark.parametrize("tier", ["longdouble"])
    @pytest.mark.parametrize("m_order", [2, 3, 4, 8, 16])
    def test_against_50_digit_mpmath(self, tier, m_order):
        # within 256 units of the long double's last place, u = 2^-64
        x0 = ModulationSpec(m_order).sin2_pim
        g = np.longdouble(x0) / np.array(self.Y0, dtype=np.longdouble)
        next_order = asep._bracket_family(x0, g)
        with mp.workdps(60):
            x = mp.mpf(x0)
            for m in range(max(self.ORDERS) + 1):
                b = next_order()
                if m not in self.ORDERS:
                    continue
                for i, y in enumerate(self.Y0):
                    # the g the code ran at, and the rho it stands for
                    rho = x / to_mpf(g[i])
                    f2f1, f1 = bracket_reference(m_order, rho, m)
                    want = mp.sqrt(x) * rho / 3 * (3 * mp.pi / (2 * x * mp.sqrt(x)) * f2f1 - f1)
                    assert abs(to_mpf(b[i]) / want - 1) <= 256 * 2.0**-64, (m, y)


class TestF1Seeds:
    """The seeds of both recurrences, A_1 = int_0^Phi (1-h) dphi and B_0 =
    int_0^Phi h dphi, which take the place of the F1 factor's closed-form
    seeds, against the paper's bracket at m = 0 in closed form,

        B_0 = (sqrt(x0) rho/3) (3 pi/(x0^(3/2) s (1+s)) - 3 (theta/sqrt(x0) - psi/sqrt(b))/rho),

    s = sqrt(1 + rho/x0), theta = arcsin sqrt(x0), psi = arcsin sqrt(b/(1+rho)),
    b = x0 + rho, and A_1 = pi - theta - B_0, in mpmath at 60 + |log10 rho|
    digits: B_0 cancels by about rho at small rho, and A_1 by about
    1/sqrt(rho) at large rho.  rho = 1e330, past the double range, is
    (1+K)/gamma0 at a subnormal gamma0."""

    RHO = (1e-300, 1e-30, *(10.0 ** e for e in range(-12, 13)), 1e30, 1e300,
           np.longdouble("1e330"))

    @pytest.mark.parametrize("m_order", [2, 3, 4, 8, 16, 64, 1024])
    def test_against_closed_forms(self, m_order):
        x0 = ModulationSpec(m_order).sin2_pim
        g = np.longdouble(x0) / np.array(self.RHO, dtype=np.longdouble)
        a1, b0, _ = asep._angle_seeds(x0, g)
        for i, rho in enumerate(self.RHO):
            with mp.workdps(60 + abs(int(mp.log10(to_mpf(rho))))):
                x = mp.mpf(x0)
                y = x / to_mpf(g[i])  # the rho of the g the code ran at
                s, theta = mp.sqrt(1 + y / x), mp.asin(mp.sqrt(x))
                b = x + y
                psi = mp.asin(mp.sqrt(b / (1 + y)))
                want_b0 = mp.sqrt(x) * y / 3 * (3 * mp.pi / (x * mp.sqrt(x) * s * (1 + s))
                                                - 3 * (theta / mp.sqrt(x) - psi / mp.sqrt(b)) / y)
                want = (mp.pi - theta - want_b0, want_b0)
                for got, ref in zip((a1[i], b0[i]), want):
                    assert abs(to_mpf(got) / ref - 1) <= 16 * 2.0**-64, rho


@settings(max_examples=40)
@given(st.floats(-12.0, 12.0), st.sampled_from([2, 3, 4, 5, 8, 16, 64, 1024]))
def test_bracket_family_and_nakagami_orders_agree(log_g, m_order):
    # B_0 from the seeds and E_1 from the mixture's tail sum are two routes
    # to int_0^Phi h dphi; the seeds split Phi; and B_m is positive and
    # non-increasing, which the error-rate remainder bound relies on
    mod = ModulationSpec(m_order)
    g = np.longdouble(10.0 ** log_g)
    a1, b0, _ = asep._angle_seeds(mod.sin2_pim, g)
    e1 = asep._nakagami_orders(g, mod, 50)[0]
    assert abs(e1 / b0 - 1) <= 1e-16
    phi = specfun._PI - specfun._PI / m_order
    assert abs((a1 + b0) / phi - 1) <= 1e-16
    next_order = asep._bracket_family(mod.sin2_pim, np.array([g]))
    b = np.array([next_order()[0] for _ in range(500)])
    assert (b > 0).all() and (np.diff(b) <= 0).all()


@functools.cache
def sin2_nodes(m_order: int, degree: int) -> list:
    """(sin^2 phi, weight) at the Gauss-Legendre nodes of the given degree on
    128 equal subintervals of [0, pi - pi/M], at 60 digits."""
    rule = GaussLegendre(mp.mp)
    with mp.workdps(60):
        pts = mp.linspace(0, mp.pi - mp.pi / m_order, 129)
        return [(mp.sin(phi) ** 2, w) for a, b in zip(pts, pts[1:])
                for phi, w in rule.get_nodes(a, b, degree, mp.mp.prec)]


def nakagami_reference(m_order: int, g: float, orders) -> list:
    """E_n = int_0^{pi-pi/M} (sin^2 phi/(sin^2 phi + g))^n dphi at 60 digits,
    by Gauss-Legendre quadrature on 128 equal subintervals, which resolve the
    integrand's peak at phi = pi/2 at high orders (mpmath's default rule on a
    few breakpoints missed by up to 1e-2 there), at two degrees that must
    agree."""
    with mp.workdps(60):
        g = mp.mpf(g)
        coarse, fine = ([mp.fsum(w * (s2 / (s2 + g)) ** n for s2, w in sin2_nodes(m_order, d))
                         for n in orders] for d in (4, 5))
        assert all(abs(c / f - 1) < 1e-17 for c, f in zip(coarse, fine))
        return fine


class TestNakagamiOrders:
    """The mixture's error-rate factors E_n against 60-digit quadrature, from
    the regime where they barely decay over the orders (small g, where the
    tails are cut short) to the one where they fall by 1e4 per order."""

    ORDERS = (1, 10, 100, 400)

    @pytest.mark.parametrize("m_order", [2, 3, 4, 16])
    @pytest.mark.parametrize("g", [1e-4, 0.05, 1.0, 1e4])
    def test_against_60_digit_quadrature(self, m_order, g):
        rows = asep._nakagami_orders(np.longdouble(g), ModulationSpec(m_order), 400)
        with mp.workdps(40):
            for n, want in zip(self.ORDERS, nakagami_reference(m_order, g, self.ORDERS)):
                assert abs(to_mpf(rows[n - 1]) / want - 1) <= 1e-15, n

    def test_decreasing_in_the_order(self):
        rows = asep._nakagami_orders(np.longdouble(0.3), ModulationSpec(8), 300)
        assert (np.diff(rows) < 0).all() and rows[0] < np.pi


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


class TestQuadratureGrid:
    """The quadrature of a whole SNR sweep: one adaptive bisection over the
    panels of all its points, each point's value its own."""

    SNR_DB = np.arange(-200.0, 61.0, 20.0)

    @pytest.mark.parametrize("k", [0.0, 8.0, 14.0, 60.0, 130.0, 1e13, 1e300])
    def test_grid_is_its_one_point_calls_and_meets_the_oracle(self, k):
        g0 = 10.0 ** (self.SNR_DB / 10.0)
        for gamma in (0.0, 0.5, 1.0):
            p = TwdpParams(k=k, gamma=gamma)
            for m_order in (2, 4, 16, 64):
                mod = ModulationSpec(m_order)
                values = asep_quadrature_grid(p, mod, g0)
                # bit for bit, whatever else the sweep holds
                assert values.tolist() == [asep_quadrature(p, mod, g) for g in g0]
                assert values[::-3].tolist() == asep_quadrature_grid(p, mod, g0[::-3]).tolist()
                for g, v in zip(g0, values):
                    assert v == pytest.approx(asep_oracle(p, m_order, g), rel=1e-10, abs=0), (
                        gamma, m_order, g)

    def test_batches_hold_every_point(self, monkeypatch):
        # a sweep runs in batches of _QUAD_CHUNK points, which only bound
        # the node arrays
        p, mod = TwdpParams(k=8.0, gamma=0.5), ModulationSpec(4)
        g0 = 10.0 ** (np.linspace(-10.0, 40.0, 11) / 10.0)
        whole = asep_quadrature_grid(p, mod, g0)
        monkeypatch.setattr(asep, "_QUAD_CHUNK", 3)
        assert asep_quadrature_grid(p, mod, g0).tolist() == whole.tolist()
        assert asep_quadrature_grid(p, mod, []).shape == (0,)

    def test_panel_budget_raises_and_names_the_point(self, monkeypatch):
        # near the singularity at theta = 0 these points' partitions grow by
        # more than 5 panels past their breakpoints' ones, though not by 200;
        # the sweep names its first such point
        p, mod = TwdpParams(k=1e13, gamma=0.5), ModulationSpec(64)
        asep_quadrature_grid(p, mod, [1.0, 10.0])
        monkeypatch.setattr(asep, "_PANEL_LIMIT", 5)
        want = r"gamma0=1\.0 needs more than 5 panels past its breakpoints$"
        with pytest.raises(QuadratureError, match=want) as err:
            asep_quadrature_grid(p, mod, [1.0, 10.0])
        assert err.value.achieved > 0


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
        # the figure-grid worst case lands at 75 terms (acceptance criterion
        # 2d); guard this point against regressions past 92
        p = TwdpParams(k=14.0, gamma=1.0)
        res = asep_exact(p, ModulationSpec(2), 10 ** 3.5)
        assert res.trunc_estimate < 1e-6
        assert res.terms_used <= 92

    @pytest.mark.parametrize("m_order", [2, 16])
    def test_hump_past_the_term_budget_goes_to_the_mixture(self, m_order):
        # the hump sits near m = 180 here and the paper's series cancels by
        # about 1e66: it runs out of its 500 terms, and the mixture sums it
        p, mod = TwdpParams(k=90.0, gamma=1.0), ModulationSpec(m_order)
        g0s = 10.0 ** (np.arange(0.0, 41.0, 10.0) / 10.0)
        for res, g0 in zip(asep_exact_grid(p, mod, g0s), g0s):
            assert res.tier == "mixture"
            assert res.value == pytest.approx(asep_oracle(p, m_order, g0), rel=1e-11, abs=0)

    def test_out_of_terms_without_a_warning(self):
        # at K = 1e4 the unconverged partial sum lies past the double range,
        # and the mixture would need more than its 5,000-term budget: the
        # point gets its error, and no RuntimeWarning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (res,) = asep_exact_grid(TwdpParams(k=1e4, gamma=0.0), ModulationSpec(2), [10.0])
        assert isinstance(res, SeriesDivergenceError)
        assert res.terms_used == specfun._MIX_MAX_TERMS

    def test_quadrature_fallback_agrees_where_series_flags(self):
        p = TwdpParams(k=130.0, gamma=1.0)
        v = asep_quadrature(p, ModulationSpec(2), 10.0)
        assert 0.0 < v < 0.5

    def test_quadrature_at_huge_k(self):
        # K = 1e300 is AWGN: the MGF's u = g0 s/(1+K - g0 s) keeps its
        # relative accuracy however small it is
        p = TwdpParams(k=1e300, gamma=0.0)
        assert asep_quadrature(p, ModulationSpec(2), 10.0) == pytest.approx(
            0.5 * math.erfc(math.sqrt(10.0)), rel=1e-8, abs=0)
        assert asep_quadrature(p, ModulationSpec(4), 10.0) == pytest.approx(
            asep_oracle(p, 4, 10.0), rel=1e-8, abs=0)

    def test_invalid_gamma0(self):
        p, mod = TwdpParams(k=1.0, gamma=0.0), ModulationSpec(2)
        with pytest.raises(InvalidParameterError,
                           match=r"^gamma0 must be positive and finite, got 0\.0$"):
            asep_exact(p, mod, 0.0)
        # a sweep names its first bad point in the same words
        with pytest.raises(InvalidParameterError,
                           match=r"^gamma0 must be positive and finite, got nan$"):
            asep_exact_grid(p, mod, [10.0, math.nan, -1.0])
        # and so does the quadrature, one point or a sweep
        with pytest.raises(InvalidParameterError,
                           match=r"^gamma0 must be positive and finite, got 0\.0$"):
            asep_quadrature(p, mod, 0.0)
        with pytest.raises(InvalidParameterError,
                           match=r"^gamma0 must be positive and finite, got nan$"):
            asep_quadrature_grid(p, mod, [10.0, math.nan, -1.0])

    @pytest.mark.parametrize("m_order", [2, 16])
    def test_bracket_argument_past_double_range(self, m_order):
        # (1+K)/(gamma0 sin^2(pi/M)) is past the double range at the
        # subnormal gamma0 = 1e-320 and 1e-310, not the long double one:
        # both are summed, every symbol a guess, (M-1)/M
        mod = ModulationSpec(m_order)
        for k, tier in ((3.0, "longdouble"), (1e3, "mixture")):
            p = TwdpParams(k=k, gamma=0.5)
            *low, kept = asep_exact_grid(p, mod, [1e-320, 1e-310, 1.0])
            for res in low:
                assert res.tier == tier
                assert res.value == pytest.approx((m_order - 1) / m_order, rel=1e-15, abs=0)
            assert kept == asep_exact(p, mod, 1.0)


class TestRescueTiers:
    """A point the long-double pass cannot vouch for reruns as the positive
    mixture, together with the sweep's other such points; the tier follows
    the point's own ratio."""

    @pytest.mark.parametrize("k", [14.0, 20.0, 25.0])
    def test_against_50_digit_mpmath_series(self, k):
        # the paper's series summed at 50 digits, where its cancellation (up
        # to about 5e21 at K = 25) leaves some 28 digits
        p = TwdpParams(k=k, gamma=1.0)
        for m_order in (2, 16):
            mod = ModulationSpec(m_order)
            for db in (0.0, 20.0, 40.0):
                g0 = 10.0 ** (db / 10.0)
                value = asep_exact(p, mod, g0).value
                assert value == pytest.approx(asep_series_mp(p, m_order, g0), rel=1e-12, abs=0)
                assert value == pytest.approx(asep_quadrature(p, mod, g0), rel=1e-8, abs=0)

    @pytest.mark.parametrize("k", [14.0, 20.0, 25.0, 60.0])
    def test_against_quadrature_oracle(self, k):
        p = TwdpParams(k=k, gamma=1.0)
        for m_order in (2, 16):
            mod = ModulationSpec(m_order)
            for db in (0.0, 20.0, 40.0):
                g0 = 10.0 ** (db / 10.0)
                value = asep_exact(p, mod, g0).value
                assert value == pytest.approx(asep_oracle(p, m_order, g0), rel=1e-12, abs=0)

    def test_k14_needs_no_mpmath_brackets(self, monkeypatch):
        # neither pass takes mpmath: the long-double one seeds its brackets in
        # long double too, and loses digits only to its cancellation ratio
        # (up to 1.4e12 here)
        def unavailable(*args):
            raise AssertionError("mpmath called")

        monkeypatch.setattr(mp, "mpf", unavailable)
        p = TwdpParams(k=14.0, gamma=1.0)
        for m_order in (2, 16):
            mod = ModulationSpec(m_order)
            g0 = np.array([1.0, 1e4])
            for tier, rel in (("longdouble", 1e-7), ("mixture", 1e-8)):
                value, *_, ok = asep._asep_pass(p, mod, g0, Pass(tier, np.arange(2)))
                assert ok.all()
                for v, g in zip(value, g0):
                    assert v == pytest.approx(asep_quadrature(p, mod, g), rel=rel, abs=0)

    def test_tier_rule(self):
        # a stub series: point 0 does not cancel, points 1-4 cancel past the
        # long double's bound, and point 5, a value far below double's
        # smallest normal, within it: the tier follows the ratio alone
        ratio = np.array([1.0, 1e15, 1e23, 1e24, 1e25, 1e6])
        size = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 4.5e-320])
        seen = []

        def pass_fn(ps):
            pts = ps.points
            seen.append((ps.name, pts.tolist()))
            n = len(pts)
            ok = np.ones(n, dtype=bool)
            return size[pts], n, np.ones(n, dtype=np.int64), np.zeros(n), ratio[pts], ok

        out = run_with_rescue(pass_fn, np.full(6, np.nan))
        assert seen == [("longdouble", [0, 1, 2, 3, 4, 5]), ("mixture", [1, 2, 3, 4])]
        assert [res.value for res in out] == size.tolist()
        assert [(res.tier, res.passes) for res in out] == [
            ("longdouble", 1), ("mixture", 2), ("mixture", 2), ("mixture", 2), ("mixture", 2),
            ("longdouble", 1)]

    def test_unconverged_point_is_reported_alone(self):
        # a stub series: points 1 and 2 run out of terms in the long-double
        # pass and rerun in the mixture, where point 2 runs out of its
        # budget; the points around them keep their results
        ratio = np.array([1.0, 1.0, 1.0, 1e15])
        seen = []

        def pass_fn(ps):
            pts = ps.points
            seen.append((ps.name, pts.tolist()))
            n = len(pts)
            ok = (pts != 2) & ((pts != 1) | (ps.name == "mixture"))
            terms = np.where(ok, 7, specfun._MAX_TERMS if ps.name == "longdouble"
                             else specfun._MIX_MAX_TERMS)
            return np.ones(n), int(terms.sum()), terms, np.zeros(n), ratio[pts], ok

        out = run_with_rescue(pass_fn, np.full(4, np.nan), what=lambda i: f"point {i}")
        assert seen == [("longdouble", [0, 1, 2, 3]), ("mixture", [1, 2, 3])]
        assert [type(res).__name__ for res in out] == [
            "SeriesResult", "SeriesResult", "SeriesDivergenceError", "SeriesResult"]
        assert str(out[2]) == f"point 2 did not converge in {specfun._MIX_MAX_TERMS} terms"
        assert out[2].terms_used == specfun._MIX_MAX_TERMS
        assert [(res.tier, res.terms_used) for res in (out[0], out[1], out[3])] == [
            ("longdouble", 7), ("mixture", 7), ("mixture", 7)]
        # the columns: the lost point's value is NaN, its terms and passes its last pass's
        assert list(out.lost) == [2] and out.lost[2] is out[2]
        assert np.isnan(out.value[2]) and out.value[[0, 1, 3]].tolist() == [1.0] * 3
        assert out.terms_used.tolist() == [7, 7, specfun._MIX_MAX_TERMS, 7]
        assert out.passes.tolist() == [1, 2, 2, 2]

    def test_result_reports_tier_and_passes(self):
        rayleigh = pdf(TwdpParams(k=0.0, gamma=0.0), 1.0)
        assert (rayleigh.tier, rayleigh.passes) == ("longdouble", 1)
        for k in (14.0, 30.0):
            res = asep_exact(TwdpParams(k=k, gamma=1.0), ModulationSpec(2), 100.0)
            assert (res.tier, res.passes, res.cancellation_ratio) == ("mixture", 2, 1.0)
            assert res.trunc_estimate <= np.finfo(np.longdouble).eps

    def test_escalation_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="twdp")
        asep_exact(TwdpParams(k=14.0, gamma=1.0), ModulationSpec(2), 100.0)
        (rec,) = caplog.records
        assert rec.name == "twdp" and rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        assert msg.startswith("asep series at K=14.0, Gamma=1.0, gamma0=100.0:")
        assert re.search(r"ratio \d\.\d\de\+\d+ in the longdouble pass", msg)
        assert msg.endswith("rerunning in the mixture")
