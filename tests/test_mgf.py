"""SNR MGF: series form vs closed form vs the CDF route."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from twdp import (
    InvalidParameterError,
    TwdpParams,
    cdf_snr,
    mgf_closed,
    mgf_series,
)

from conftest import FIGURE_SETS, rician_mgf


class TestMgfSeries:
    def test_normalization_at_zero(self):
        for k, g in FIGURE_SETS:
            p = TwdpParams(k=k, gamma=g)
            gamma0 = 10.0
            assert mgf_series(p, gamma0, 0.0).value == pytest.approx(1.0, rel=1e-14, abs=0)
            assert mgf_closed(p, gamma0, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_rayleigh_reduction(self):
        p = TwdpParams(k=0.0, gamma=0.0)
        gamma0 = 7.0
        for s in (-0.1, -1.0, -10.0):
            ref = 1.0 / (1.0 - s * 7.0)
            assert mgf_series(p, gamma0, s).value == pytest.approx(ref, rel=1e-14, abs=0)
            assert mgf_closed(p, gamma0, s) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_series_vs_closed_example(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        gamma0 = 10.0
        a = mgf_series(p, gamma0, -1.0).value
        b = mgf_closed(p, gamma0, -1.0)
        assert abs(a - b) / b <= 1e-11

    @pytest.mark.parametrize("k", [0.0, 2.0, 8.0, 14.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 1.0])
    def test_series_vs_closed_grid(self, k, gamma):
        p = TwdpParams(k=k, gamma=gamma)
        for gamma0 in (1.0, 10.0, 100.0):
            for s in (-10.0, -1.0, -0.1, 0.0):
                a = mgf_series(p, gamma0, s).value
                b = mgf_closed(p, gamma0, s)
                assert abs(a - b) <= 1e-10 * abs(b)

    def test_monotone_in_s(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        gamma0 = 10.0
        vals = [mgf_closed(p, gamma0, float(s)) for s in np.linspace(-20.0, 0.0, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_positive_s_rejected(self):
        p = TwdpParams(k=1.0, gamma=0.0)
        gamma0 = 1.0
        with pytest.raises(InvalidParameterError):
            mgf_series(p, gamma0, 0.5)
        with pytest.raises(InvalidParameterError):
            mgf_closed(p, gamma0, 0.5)


class TestMgfClosed:
    def test_rician_reduction(self):
        for k in (0.5, 2.0, 8.0, 14.0):
            p = TwdpParams(k=k, gamma=0.0)
            gamma0 = 25.0
            for s in (-4.0, -0.3):
                assert mgf_closed(p, gamma0, s) == pytest.approx(
                    rician_mgf(k, 25.0, s), rel=1e-13, abs=0
                )

    def test_laplace_stieltjes_oracle(self):
        # M(s) = -s int_0^inf F(gamma) e^{s gamma} d gamma for s < 0
        p = TwdpParams(k=14.0, gamma=1.0)
        gamma0 = 100.0
        s = -2.0

        def integrand(gval):
            return cdf_snr(p, gamma0, gval).value * math.exp(s * gval)

        val, _ = integrate.quad(integrand, 0.0, 40.0, limit=300,
                                epsabs=1e-13, epsrel=1e-11)
        ref = -s * val
        assert mgf_closed(p, gamma0, s) == pytest.approx(ref, rel=1e-8, abs=0)

    def test_extreme_s_is_stable(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        gamma0 = 10.0
        v = mgf_closed(p, gamma0, -1e300)
        assert v >= 0.0 and math.isfinite(v)

    def test_identity_link_to_scaled_bessel(self):
        # series sum equals exp(a(1+b)) I0(2|a| sqrt(b)) with
        # a = gamma0 K s / ((1+K-gamma0 s)(1+Gamma^2)) <= 0
        p = TwdpParams(k=8.0, gamma=0.5)
        gamma0 = 10.0
        for s in (-0.5, -3.0):
            den = 1.0 + p.k - gamma0 * s
            a = gamma0 * p.k * s / (den * (1.0 + p.gamma ** 2))
            b = p.gamma ** 2
            x = 2.0 * abs(a) * math.sqrt(b)
            predicted = (
                (1.0 + p.k) / den
                * math.exp(a * (1.0 + b) + x)
                * special.ive(0, x)
            )
            assert mgf_series(p, gamma0, s).value == pytest.approx(predicted, rel=1e-12, abs=0)
