"""Envelope/SNR distribution series against closed forms and quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate

from twdp import (
    InvalidParameterError,
    TwdpParams,
    cdf,
    cdf_grid,
    cdf_snr,
    pdf,
)

from conftest import FIGURE_SETS, phase_average_cdf, phase_average_pdf, rician_cdf_mp


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
        p = TwdpParams(k=k, gamma=g)
        for r in np.linspace(0.1, 3.0, 25):
            res = pdf(p, float(r))
            assert res.trunc_estimate < 1e-6
            assert res.terms_used <= 35

    def test_negative_r_rejected(self):
        with pytest.raises(InvalidParameterError):
            pdf(TwdpParams(k=1.0, gamma=0.0), -0.1)


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
        p = TwdpParams(k=8.0, gamma=0.5)
        # r = 0 for both, and x = r^2 / (2 sigma^2) past the clamp for the cdf
        shortcuts = [pdf(p, 0.0), *cdf_grid(p, [0.0, 40.0])]
        assert [(res.tier, res.passes) for res in shortcuts] == [("none", 0)] * 3
        summed = cdf(p, 1.0)
        assert (summed.tier, summed.passes) == ("longdouble", 1)

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
