"""Parameter conversions and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twdp import (
    InvalidParameterError,
    TwdpParams,
    delta_from_gamma,
    gamma_from_delta,
    k_from_rice_delta,
    k_from_rice_gamma,
)


def from_magnitudes(v1: float, v2: float, sigma2: float) -> TwdpParams:
    """(K, Gamma) by their definitions K = (V1^2 + V2^2) / (2 sigma^2) and
    Gamma = V2 / V1 (0 without specular power)."""
    k = (v1 * v1 + v2 * v2) / (2.0 * sigma2)
    return TwdpParams(k=k, gamma=0.0 if v1 == 0.0 else v2 / v1, sigma2=sigma2)


class TestFromMagnitudes:
    """TwdpParams.v1 and v2 are the ray magnitudes that K and Gamma define."""

    def test_pure_diffuse_is_rayleigh(self):
        p = from_magnitudes(0.0, 0.0, 1.0)
        assert p.k == 0.0 and p.gamma == 0.0
        assert p.v1 == 0.0 and p.v2 == 0.0

    def test_equal_rays(self):
        p = TwdpParams(k=2.0, gamma=1.0, sigma2=0.5)
        assert p.v1 == pytest.approx(1.0, rel=1e-15, abs=0)
        assert p.v2 == p.v1

    def test_hand_computed(self):
        p = TwdpParams(k=2.5, gamma=0.5, sigma2=1.0)
        assert p.v1 == pytest.approx(2.0, rel=1e-15, abs=0)
        assert p.v2 == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_sigma2_must_be_positive(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                TwdpParams(k=1.0, gamma=0.0, sigma2=bad)

    def test_magnitude_round_trip(self):
        for v1, v2, s2 in [(2.0, 1.0, 0.7), (1.3, 0.0, 2.0), (0.4, 0.4, 0.1)]:
            p = from_magnitudes(v1, v2, s2)
            assert p.v1 == pytest.approx(v1, rel=1e-12, abs=1e-12)
            assert p.v2 == pytest.approx(v2, rel=1e-12, abs=1e-12)


class TestDeltaGamma:
    @pytest.mark.parametrize("gamma,delta", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.8)])
    def test_delta_from_gamma_values(self, gamma, delta):
        assert delta_from_gamma(gamma) == pytest.approx(delta, abs=1e-15)

    @pytest.mark.parametrize("delta,gamma", [(0.0, 0.0), (1.0, 1.0), (0.8, 0.5)])
    def test_gamma_from_delta_values(self, delta, gamma):
        assert gamma_from_delta(delta) == pytest.approx(gamma, abs=1e-15)

    def test_round_trip_dense_grid(self):
        # gamma -> delta -> gamma; the map gamma -> delta is many-to-one in
        # float64 near 1 (condition (1-c)/(c d^2) ~ 100 at 0.99), so 1e-14
        # is only meaningful up to there
        for g in list(np.linspace(0.0, 0.99, 1001)) + [1.0]:
            assert gamma_from_delta(delta_from_gamma(float(g))) == pytest.approx(
                float(g), abs=1e-14
            )

    def test_round_trip_near_one_conditioning(self):
        # d gamma / d delta = (1-c)/(c delta^2), c = sqrt(1-delta^2): the
        # error budget is the map's condition number times one ulp of delta
        for g in [0.992, 0.996, 0.999, 0.9999, 1.0 - 1e-7]:
            d = delta_from_gamma(g)
            c = math.sqrt((1.0 - d) * (1.0 + d))
            cond = (1.0 - c) / (c * d * d) if c > 0 else math.inf
            bound = 1e-14 + 4.0 * cond * 2.3e-16
            assert gamma_from_delta(d) == pytest.approx(g, abs=bound)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_round_trip_hypothesis(self, g):
        assert gamma_from_delta(delta_from_gamma(g)) == pytest.approx(g, abs=1e-14)

    def test_small_delta_accuracy(self):
        # conjugate form vs exact series delta/2 (1 + delta^2/4 + delta^4/8 + ...)
        for d in (1e-12, 1e-8, 1e-5, 1e-3):
            ref = 0.5 * d * (1.0 + 0.25 * d * d + 0.125 * d ** 4)
            assert gamma_from_delta(d) == pytest.approx(ref, rel=1e-15, abs=0)

    def test_monotone_and_dominating(self):
        gs = np.linspace(0.0, 1.0, 501)
        ds = [delta_from_gamma(float(g)) for g in gs]
        assert all(b > a for a, b in zip(ds, ds[1:]))
        # Delta >= Gamma with equality only at the endpoints
        for g, d in zip(gs[1:-1], ds[1:-1]):
            assert d > g

    def test_out_of_range_rejected(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(InvalidParameterError):
                delta_from_gamma(bad)
            with pytest.raises(InvalidParameterError):
                gamma_from_delta(bad)


class TestKForms:
    @pytest.mark.parametrize("k,gamma,expect", [(0.0, 0.3, 0.0), (8.0, 0.0, 8.0), (14.0, 1.0, 7.0)])
    def test_k_rice_values(self, k, gamma, expect):
        assert TwdpParams(k=k, gamma=gamma).k_rice == pytest.approx(expect, rel=1e-15, abs=0)

    def test_k_consistency_between_parameterizations(self):
        # same dominant-ray factor, Gamma route vs Delta route
        for g in np.linspace(0.0, 1.0, 201):
            k_g = k_from_rice_gamma(2.5, float(g))
            k_d = k_from_rice_delta(2.5, delta_from_gamma(float(g)))
            assert k_d == pytest.approx(k_g, rel=1e-12, abs=0)

    def test_k_ratio_curves_monotone(self):
        xs = np.linspace(0.0, 1.0, 301)
        via_delta = [k_from_rice_delta(1.0, float(x)) for x in xs]
        via_gamma = [k_from_rice_gamma(1.0, float(x)) for x in xs]
        assert all(b > a for a, b in zip(via_delta, via_delta[1:]))
        assert all(b > a for a, b in zip(via_gamma, via_gamma[1:]))


class TestTwdpParams:
    def test_default_sigma2_normalizes_power(self):
        for k in (0.0, 2.0, 8.0, 14.0):
            p = TwdpParams(k=k, gamma=0.5)
            assert p.omega == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_derived_magnitudes_ordered(self):
        p = TwdpParams(k=5.0, gamma=0.3, sigma2=2.0)
        assert 0 <= p.v2 <= p.v1
        assert p.omega == pytest.approx(p.v1 ** 2 + p.v2 ** 2 + 2 * p.sigma2, rel=1e-14, abs=0)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    # a subnormal K: 2 sigma^2 K / (1 + Gamma^2) underflows, V1 does not
    @example(k=5e-324, gamma=1.0, sigma2=0.5)
    def test_magnitude_reconstruction_property(self, k, gamma, sigma2):
        p = TwdpParams(k=k, gamma=gamma, sigma2=sigma2)
        q = from_magnitudes(p.v1, p.v2, sigma2)
        assert q.v1 == pytest.approx(p.v1, rel=1e-12, abs=1e-12)
        assert q.v2 == pytest.approx(p.v2, rel=1e-12, abs=1e-12)
        assert q.k == pytest.approx(k, rel=1e-12, abs=1e-12)
        if k > 0:  # gamma carries no information without specular power
            assert q.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwdpParams(k=-1.0, gamma=0.0)
        with pytest.raises(InvalidParameterError):
            TwdpParams(k=1.0, gamma=1.5)
        with pytest.raises(InvalidParameterError):
            TwdpParams(k=1.0, gamma=0.5, sigma2=0.0)
