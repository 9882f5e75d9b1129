"""Envelope/SNR distribution series against closed forms and quadrature."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from twdp import (
    InvalidParameterError,
    SeriesDivergenceError,
    TwdpParams,
    cdf,
    cdf_grid,
    cdf_snr,
    pdf,
    pdf_grid,
)
from twdp.dist import _pdf_pass
from twdp.specfun import _MIX_MAX_TERMS, k_top, mixture_terms, run_with_rescue

from conftest import (
    FIGURE_SETS,
    paper_pdf_pass,
    phase_average_cdf,
    phase_average_pdf,
    rician_cdf_mp,
)


class TestPdf:
    def test_rayleigh_point(self):
        # (r / sigma^2) exp(-r^2 / (2 sigma^2)) = 2 e^-1 at r = 1, sigma^2 = 0.5
        p = TwdpParams(k=0.0, gamma=0.0, sigma2=0.5)
        assert pdf(p, 1.0).value == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14, abs=0)

    def test_rician_oracle_point(self):
        p = TwdpParams(k=8.0, gamma=0.0, sigma2=1.0)
        ref = phase_average_pdf(p, [4.0])[0]
        assert pdf(p, 4.0).value == pytest.approx(ref, rel=1e-13, abs=0)

    def test_zero_is_exact(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        res = pdf(p, 0.0)
        assert res.value == 0.0 and res.terms_used == 0

    @pytest.mark.parametrize("k,g", FIGURE_SETS)
    def test_normalization(self, k, g):
        p = TwdpParams(k=k, gamma=g)
        upper = 8.0 * math.sqrt(p.omega)
        val, err = integrate.quad(
            lambda r: pdf(p, r).value, 0.0, upper, limit=300, epsabs=1e-11, epsrel=1e-11
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_rician_reduction_grid(self):
        for k in (0.5, 2.0, 8.0, 14.0):
            p = TwdpParams(k=k, gamma=0.0, sigma2=0.7)
            rs = np.linspace(0.05, 4.0, 40)
            for r, ref in zip(rs, phase_average_pdf(p, rs)):
                assert pdf(p, float(r)).value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_rayleigh_reduction_grid(self):
        p = TwdpParams(k=0.0, gamma=0.0, sigma2=1.3)
        rs = np.linspace(0.0, 5.0, 40)
        for r, ref in zip(rs, phase_average_pdf(p, rs)):
            assert pdf(p, float(r)).value == pytest.approx(ref, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k,g", FIGURE_SETS)
    def test_truncation_within_35_terms(self, k, g, rel_tol_1e6):
        # the paper's claim is about its own series, which the long-double
        # pass sums at every point; a rescued value counts mixture terms
        p = TwdpParams(k=k, gamma=g)
        rs = np.linspace(0.1, 3.0, 25)
        n, trunc = paper_pdf_pass(p, rs)
        assert (trunc < 1e-6).all() and (n <= 35).all()
        for r in rs:
            assert pdf(p, float(r)).trunc_estimate < 1e-6

    def test_negative_r_rejected(self):
        with pytest.raises(InvalidParameterError):
            pdf(TwdpParams(k=1.0, gamma=0.0), -0.1)

    def test_prefactor_overflow_cannot_be_summed(self):
        # exp(-(sqrt(x) - sqrt(K'))^2 + 2c) overflows long double only for
        # c = 2 K Gamma/(1+Gamma^2) > 5,678, past the mixture's budget
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesDivergenceError,
                               match="cannot be summed: its prefactor overflows long double"):
                pdf(TwdpParams(k=1e4, gamma=1.0), 1.0)

    def test_bessel_argument_past_the_ladder_cannot_be_summed(self):
        # b1 r = 2e10 is past the ladder's 1e7, and so past the mixture's
        # budget: a valid input that no series can sum, not a usage error
        with pytest.raises(SeriesDivergenceError,
                           match="cannot be summed: a Bessel argument exceeds 1e\\+07"):
            pdf(TwdpParams(k=1e10, gamma=0.0), 1.0)

    def test_a_point_past_the_mixture_budget_gives_up_only_itself(self):
        # at K' = 3,200 the proven bound does not stop r = 2.06 within the
        # mixture's 5,000 terms; r = 0.00875, summed in the same pass, keeps
        # its scalar result bit for bit
        p = TwdpParams(k=1600.0, gamma=1.0)
        r = np.array([0.00875, 2.06])
        out = run_with_rescue(lambda ps: _pdf_pass(p, r, ps), np.full(2, np.nan))
        assert out[0] == pdf(p, 0.00875)
        assert out[0].tier == "mixture"
        assert isinstance(out[1], SeriesDivergenceError) and list(out.lost) == [1]
        for rs in ([2.06], r):
            with pytest.raises(SeriesDivergenceError, match="r=2.06 did not converge in 5000"):
                pdf_grid(p, rs)

    def test_a_point_past_its_own_estimate_is_summed_under_the_bound(self):
        # r = 3.06 at K = 1000, Gamma = 1 estimates 5,028 terms for itself,
        # past the 5,000-term cap, but the proven bound stops it at 4,756,
        # alone and in a grid alike
        p = TwdpParams(k=1000.0, gamma=1.0)
        x = 3.06 ** 2 / (2 * p.sigma2)
        assert mixture_terms(p, math.sqrt(k_top(p.k, p.gamma) * x)) == 5028 > _MIX_MAX_TERMS
        alone = run_with_rescue(lambda ps: _pdf_pass(p, np.array([3.06]), ps), np.full(1, np.nan))
        grid = run_with_rescue(lambda ps: _pdf_pass(p, np.array([0.00875, 3.06]), ps),
                               np.full(2, np.nan))
        assert (alone[0].tier, alone[0].terms_used) == ("mixture", 4756)
        assert grid[1] == alone[0]
        # pdf itself returns 0 there without a pass; at K = 1500 the point
        # r = 2.03 sqrt(Omega) (estimate 5,005) has a nonzero value
        p = TwdpParams(k=1500.0, gamma=1.0)
        res = pdf(p, 2.03 * math.sqrt(p.omega))
        assert (res.tier, res.terms_used) == ("mixture", 4732) and res.value > 0

    def test_a_pass_whose_weights_need_more_than_the_budget_raises(self):
        # K' = 5,000: the mixture's weights alone need more than its 5,000
        # terms, so the pass sums nothing, not even r = 0.00875
        with pytest.raises(SeriesDivergenceError, match="r=0.00875 did not converge in 5000"):
            pdf(TwdpParams(k=2500.0, gamma=1.0), 0.00875)


class TestCdf:
    def test_rayleigh_closed_form(self):
        p = TwdpParams(k=0.0, gamma=0.0, sigma2=0.5)
        for r in (0.2, 1.0, 2.5):
            assert cdf(p, r).value == pytest.approx(-math.expm1(-r * r), rel=1e-13, abs=0)

    def test_rician_marcum_oracle(self):
        # F(3) = 1 - Q1(sqrt(16), 3) for K = 8, sigma^2 = 1
        p = TwdpParams(k=8.0, gamma=0.0, sigma2=1.0)
        ref = rician_cdf_mp(8.0, 1.0, 3.0)
        assert cdf(p, 3.0).value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_limit_is_one(self):
        p = TwdpParams(k=14.0, gamma=1.0)
        assert cdf(p, 4.0 * math.sqrt(p.omega)).value == pytest.approx(1.0, abs=1e-8)

    def test_zero(self):
        assert cdf(TwdpParams(k=5.0, gamma=0.2), 0.0).value == 0.0

    def test_shortcuts_sum_no_series(self):
        p, p40 = TwdpParams(k=8.0, gamma=0.5), TwdpParams(k=40.0, gamma=0.0)
        # r = 0 for both; the pdf at r = 1e6, where its prefactor, which
        # bounds it, is below 2^-1076 (the Bessel ladder, limited to
        # arguments up to 1e7, never runs); the cdf where its complement is
        # below 2^-53, at x = r^2 / (2 sigma^2) = 14,400 and, at K = 40,
        # Gamma = 0, at x = 369 (below e^-166)
        shortcuts = [pdf(p, 0.0), pdf(TwdpParams(k=14.0, gamma=1.0), 1e6),
                     *cdf_grid(p, [0.0, 40.0]), cdf(p40, 3.0 * math.sqrt(p40.omega))]
        assert [(res.value, res.tier, res.passes) for res in shortcuts] == [
            (v, "none", 0) for v in (0.0, 0.0, 0.0, 1.0, 1.0)]
        summed = cdf(p, 1.0)
        assert (summed.tier, summed.passes) == ("longdouble", 1)

    def test_clamp_only_where_the_complement_is_negligible(self):
        # x = r^2 (1+K) > 600 alone is no shortcut: at K = 300, Gamma = 1,
        # r = 1.42 (x = 607, K (1+Gamma)^2/(1+Gamma^2) = 600) the cdf is
        # 0.9486 and at K = 1e6, r = 0.5 it is 0; both used to come back 1.0.
        # The first runs out of the paper's 500 terms, and the mixture gives
        # it; the second's e^x (x = 250,000) overflows long double.
        p300, p1e6 = TwdpParams(k=300.0, gamma=1.0), TwdpParams(k=1e6, gamma=0.0)
        ref = phase_average_cdf(p300, [1.42])[0]
        assert ref == pytest.approx(0.9486, abs=1e-4)
        assert phase_average_cdf(p1e6, [0.5])[0] == 0.0
        for res in (cdf(p300, 1.42), cdf_snr(p300, 1.0, 1.42 ** 2)):  # the same x
            assert (res.tier, res.passes) == ("mixture", 2)
            assert res.value == pytest.approx(ref, rel=1e-11, abs=0)
        with pytest.raises(SeriesDivergenceError, match="cannot be summed"):
            cdf(p1e6, 0.5)
        with pytest.raises(SeriesDivergenceError, match="cannot be summed"):
            cdf_snr(p1e6, 1.0, 0.25)
        # (sqrt(x) - sqrt(K'))^2 = 41 at K = 170, Gamma = 1, r = 1.9: the
        # complement is below e^-41 < 2^-53
        res = cdf(TwdpParams(k=170.0, gamma=1.0), 1.9)
        assert (res.value, res.tier, res.passes) == (1.0, "none", 0)

    @pytest.mark.parametrize("k,g", FIGURE_SETS)
    def test_monotone(self, k, g):
        p = TwdpParams(k=k, gamma=g)
        vals = [res.value for res in cdf_grid(p, np.linspace(0.0, 3.5, 200))]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("k,g", FIGURE_SETS)
    def test_derivative_matches_pdf(self, k, g):
        p = TwdpParams(k=k, gamma=g)
        h = 1e-5 * math.sqrt(p.omega)
        for r in np.linspace(0.1, 2.5, 50):
            num = (cdf(p, float(r) + h).value - cdf(p, float(r) - h).value) / (2 * h)
            assert num == pytest.approx(pdf(p, float(r)).value, abs=1e-6)

    def test_rician_reduction_grid(self):
        for k in (0.5, 2.0, 8.0):
            p = TwdpParams(k=k, gamma=0.0, sigma2=0.8)
            rs = np.linspace(0.1, 3.5, 30)
            for r, ref in zip(rs, phase_average_cdf(p, rs)):
                assert cdf(p, float(r)).value == pytest.approx(ref, rel=1e-10, abs=0)

    def test_double_precision_truncation_target(self):
        # 1e-26 tail control is out of reach in binary64; 1e-12 is the contract
        for k, g in FIGURE_SETS:
            p = TwdpParams(k=k, gamma=g)
            for r in (0.4, 1.0, 1.8):
                res = cdf(p, float(r))
                assert res.trunc_estimate < 1e-12

    def test_grid_matches_scalar(self):
        p = TwdpParams(k=14.0, gamma=1.0)
        rs = np.linspace(0.0, 3.0, 150)
        grid = cdf_grid(p, rs)
        for r, res in zip(rs, grid):
            assert res.value == pytest.approx(cdf(p, float(r)).value, abs=2e-12)


class TestCdfSnr:
    def test_zero(self):
        p = TwdpParams(k=3.0, gamma=0.4)
        gamma0 = 7.0
        assert cdf_snr(p, gamma0, 0.0).value == 0.0

    def test_rayleigh_form(self):
        p = TwdpParams(k=0.0, gamma=0.0)
        gamma0 = 5.0
        for gval in (0.5, 5.0, 20.0):
            ref = -math.expm1(-gval / 5.0)
            assert cdf_snr(p, gamma0, gval).value == pytest.approx(ref, rel=1e-13, abs=0)

    def test_change_of_variables_consistency(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        gamma0 = 12.0
        for gval in (0.1, 1.0, 12.0, 50.0):
            r = math.sqrt(gval / (gamma0 / p.omega))
            assert cdf_snr(p, gamma0, gval).value == pytest.approx(
                cdf(p, r).value, rel=1e-12, abs=1e-15
            )

    def test_quadrature_oracle_at_mean_snr(self):
        # integrate the envelope density up to the equivalent envelope level
        p = TwdpParams(k=8.0, gamma=0.5)
        gamma0 = 10.0
        r_top = math.sqrt(10.0 / (gamma0 / p.omega))
        ref, _ = integrate.quad(lambda r: pdf(p, r).value, 0.0, r_top,
                                limit=200, epsabs=1e-12, epsrel=1e-12)
        assert cdf_snr(p, gamma0, 10.0).value == pytest.approx(ref, rel=1e-9, abs=0)


class TestReferenceForms:
    """The phase-average oracle of conftest, which the reductions above
    rest on, at its Rayleigh and Rician ends."""

    def test_rayleigh_pdf_zero(self):
        assert phase_average_pdf(TwdpParams(k=0.0, gamma=0.0, sigma2=0.5), [0.0])[0] == 0.0

    def test_rician_cdf_definition(self):
        # 1 - Q1(sqrt(16), 3) for K = 8, sigma^2 = 1
        got = phase_average_cdf(TwdpParams(k=8.0, gamma=0.0, sigma2=1.0), [3.0])[0]
        assert got == pytest.approx(rician_cdf_mp(8.0, 1.0, 3.0), rel=1e-14, abs=0)

    def test_rician_pdf_normalizes(self):
        p = TwdpParams(k=8.0, gamma=0.0, sigma2=1.0)
        val, _ = integrate.quad(lambda r: phase_average_pdf(p, [r])[0], 0.0, 30.0,
                                limit=200, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_rician_large_k_is_finite(self):
        # scaled assembly keeps the huge-K density representable
        p = TwdpParams(k=500.0, gamma=0.0, sigma2=1.0)
        v = phase_average_pdf(p, [math.sqrt(2 * 500.0)])[0]
        assert math.isfinite(v) and v > 0
