"""Special-function kernel against brute-force and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import special

from twdp import (
    InvalidParameterError,
    ModulationSpec,
    SeriesDivergenceError,
    SeriesResult,
    SimConfig,
    TwdpParams,
    asep_asymptotic,
    asep_exact,
    asep_exact_grid,
    asep_quadrature,
    cdf,
    cdf_snr,
    mgf_closed,
    mgf_series,
    mgf_series_grid,
    simulate_psk_ser,
)
from twdp.specfun import _MAX_TERMS, _exp_i0, _ive_ladder

from conftest import (
    appell_f1,
    appell_f1_double_series,
    euler_2f1,
    gauss_2f1_series,
    hyp1f1_poly,
    hyp2f1_3half,
    hyp2f1_poly,
    identity_rhs_mp,
    rician_cdf_mp,
)


def ive_maclaurin(nu: int, x: float, terms: int = 40) -> float:
    """Brute-force scaled Bessel oracle: e^-x sum_k (x/2)^(nu+2k) / (k! (nu+k)!)."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (nu + 2 * k) / (math.factorial(k) * math.factorial(nu + k))
    return math.exp(-x) * total


def ive(nu: int, x: float) -> float:
    """exp(-x) I_nu(x) from the library's Bessel ladder, one order at one x."""
    return float(_ive_ladder(np.array([x]), nu)[nu, 0])


class TestBesselIScaled:
    def test_at_zero(self):
        assert ive(0, 0.0) == 1.0
        assert ive(3, 0.0) == 0.0

    def test_i0_of_two_against_maclaurin(self):
        # 30-term power series of I_0(2), exponentially scaled
        assert ive(0, 2.0) == pytest.approx(ive_maclaurin(0, 2.0, 30), rel=1e-14, abs=0)

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 10])
    def test_power_series_oracle_small_x(self, nu):
        for x in [1e-8, 1e-3, 0.1, 0.7, 2.0, 7.5, 18.0, 30.0]:
            assert ive(nu, x) == pytest.approx(
                ive_maclaurin(nu, x, 80), rel=1e-13, abs=5e-300
            )

    def test_range_and_order_monotonicity(self):
        for x in [0.0, 0.4, 3.0, 42.0, 900.0]:
            vals = [ive(nu, x) for nu in range(8)]
            assert 0.0 < vals[0] <= 1.0
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_three_term_recurrence_scaled(self):
        # ive_{nu-1}(x) - ive_{nu+1}(x) = (2 nu / x) ive_nu(x)
        for x in np.geomspace(0.5, 50.0, 12):
            for nu in (1, 2, 7, 20, 40):
                lhs = ive(nu - 1, float(x)) - ive(nu + 1, float(x))
                rhs = 2 * nu / float(x) * ive(nu, float(x))
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-280)

    def test_against_scipy(self):
        for x in [0.3, 4.2, 77.0, 1300.0]:
            for nu in (0, 1, 6, 25):
                assert ive(nu, x) == pytest.approx(
                    float(special.ive(nu, x)), rel=5e-14, abs=1e-300
                )

    def test_invalid_arguments(self):
        # negative, NaN, past the ladder's 1e7, and one bad entry among
        # valid ones: the whole array is refused
        for x in (-0.5, math.nan, 2e7):
            with pytest.raises(InvalidParameterError):
                ive(0, x)
        with pytest.raises(InvalidParameterError):
            _ive_ladder(np.array([0.0, 0.3, 2.0, -1.0, 40.0]), 3)


def hyp1f1_pochhammer_oracle(m: int, x: float) -> float:
    """Monomial form of 1F1(1-m; 2; x) in exact rational arithmetic."""
    from fractions import Fraction

    xf = Fraction(x)
    total = Fraction(0)
    for j in range(m):
        rf = math.prod(1 - m + t for t in range(j))
        total += Fraction(rf) * xf ** j / (
            math.prod(2 + t for t in range(j)) * math.factorial(j)
        )
    return float(total)


class TestHyp1f1Poly:
    def test_m1_is_one(self):
        assert hyp1f1_poly(1, 7.3) == 1.0

    def test_m2_root_at_two(self):
        assert hyp1f1_poly(2, 2.0) == 0.0

    def test_m3_value(self):
        # 1 - 1 + 1/6
        assert hyp1f1_poly(3, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 20, 45, 90])
    def test_pochhammer_oracle(self, m):
        for x in [0.1, 1.7, 4.0, 9.5, 21.0]:
            assert hyp1f1_poly(m, x) == pytest.approx(
                hyp1f1_pochhammer_oracle(m, x), rel=1e-13, abs=1e-300
            )

    def test_rejects_nonpositive_order(self):
        with pytest.raises(InvalidParameterError):
            hyp1f1_poly(0, 1.0)


class TestHyp2f1Poly:
    def test_m0(self):
        assert hyp2f1_poly(0, 0.7) == 1.0

    def test_b0(self):
        for m in (0, 1, 5, 40):
            assert hyp2f1_poly(m, 0.0) == 1.0

    def test_central_binomial_at_b1(self):
        # Vandermonde: sum_j C(m,j)^2 = C(2m, m), exact in integers
        for m in range(16):
            assert hyp2f1_poly(m, 1.0) == float(math.comb(2 * m, m))

    @pytest.mark.parametrize("m", [1, 2, 4, 9, 17])
    def test_binomial_sum_oracle(self, m):
        for b in (0.1, 0.25, 0.9):
            ref = sum(math.comb(m, j) ** 2 * b ** j for j in range(m + 1))
            assert hyp2f1_poly(m, b) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            hyp2f1_poly(-1, 0.5)
        with pytest.raises(InvalidParameterError):
            hyp2f1_poly(2, 1.5)


class TestHyp2f13Half:
    def test_at_zero(self):
        res = hyp2f1_3half(0, 0.0)
        assert res.value == 1.0 and res.trunc_estimate == 0.0

    def test_quadrature_oracle_m0(self):
        # Euler integral over the 3/2 slot: c > a > 0
        ref = euler_2f1(1.5, 1.0, 2.0, -1.0)
        assert hyp2f1_3half(0, -1.0).value == pytest.approx(ref, rel=1e-10, abs=0)

    def test_quadrature_oracle_m5(self):
        ref = euler_2f1(1.5, 6.0, 2.0, -10.0)
        assert hyp2f1_3half(5, -10.0).value == pytest.approx(ref, rel=1e-9, abs=0)

    def test_deep_negative_argument(self):
        # the transformed argument sits at 300/301; thousands of terms needed
        ref = euler_2f1(1.5, 4.0, 2.0, -300.0)
        assert hyp2f1_3half(3, -300.0, max_terms=20000).value == pytest.approx(ref, rel=1e-9, abs=0)

    def test_divergence_error_carries_terms(self):
        with pytest.raises(SeriesDivergenceError) as err:
            hyp2f1_3half(40, -200.0, max_terms=10)
        assert err.value.terms_used == 10

    def test_positive_argument_rejected(self):
        with pytest.raises(InvalidParameterError):
            hyp2f1_3half(0, 0.5)


class TestAppellF1:
    def test_origin(self):
        assert appell_f1(0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_collapses_to_gauss_series(self):
        # with the second argument zero this is 2F1(3/2, 1/2; 5/2; x)
        for x in (0.1, 0.5, 0.85):
            ref = gauss_2f1_series(1.5, 0.5, 2.5, x)
            assert appell_f1(0, x, 0.0) == pytest.approx(ref, rel=1e-10, abs=0)
        for m in (1, 4):
            assert appell_f1(m, 0.5, 0.0) == pytest.approx(
                gauss_2f1_series(1.5, 0.5, 2.5, 0.5), rel=1e-10, abs=0
            )

    def test_transformed_double_series_oracle(self):
        ref = appell_f1_double_series(3, 0.25, -2.0)
        assert appell_f1(3, 0.25, -2.0) == pytest.approx(ref, rel=1e-11, abs=0)
        ref = appell_f1_double_series(1, 0.6, -0.8)
        assert appell_f1(1, 0.6, -0.8) == pytest.approx(ref, rel=1e-11, abs=0)

    def test_x_equal_one_reduction(self):
        # F1(3/2; 1/2, 1+m; 5/2; 1, y) = (3 pi / 4) 2F1(3/2, 1+m; 2; y)
        for m, y in ((0, -1.0), (4, -3.0), (2, -40.0)):
            ref = 0.75 * math.pi * hyp2f1_3half(m, y, max_terms=10000).value
            assert appell_f1(m, 1.0, y) == pytest.approx(ref, rel=1e-9, abs=0)

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            appell_f1(0, 1.2, -1.0)
        with pytest.raises(InvalidParameterError):
            appell_f1(0, 0.5, 0.1)


class TestMarcumQ1:
    """The Gamma = 0 envelope cdf is Rician, F(r) = 1 - Q_1(sqrt(2K), r/sigma):
    at sigma^2 = 1 it gives 1 - Q_1(a, b) at K = a^2/2, r = b."""

    @staticmethod
    def one_minus_q1(a: float, b: float) -> float:
        return cdf(TwdpParams(k=a * a / 2, gamma=0.0, sigma2=1.0), b).value

    def test_corner_values(self):
        assert self.one_minus_q1(0.0, 0.0) == 0.0
        for b in (0.3, 1.0, 2.5):
            # Q_1(0, b) = exp(-b^2 / 2)
            assert self.one_minus_q1(0.0, b) == pytest.approx(-math.expm1(-b * b / 2), rel=1e-14, abs=0)
        assert self.one_minus_q1(3.0, 0.0) == 0.0

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.7, 2.2), (4.0, 4.0), (5.5, 1.1)])
    def test_integral_oracle(self, a, b):
        ref = rician_cdf_mp(a * a / 2, 1.0, b)
        assert self.one_minus_q1(a, b) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_monotonicity(self):
        # Q_1 rises with a and falls with b
        vals = [self.one_minus_q1(float(a), 2.0) for a in np.linspace(0.0, 5.0, 21)]
        assert all(y <= x for x, y in zip(vals, vals[1:]))
        vals = [self.one_minus_q1(2.0, float(b)) for b in np.linspace(0.0, 5.0, 21)]
        assert all(y >= x for x, y in zip(vals, vals[1:]))

    def test_negative_arguments_rejected(self):
        with pytest.raises(InvalidParameterError):
            self.one_minus_q1(1.0, -0.5)
        with pytest.raises(InvalidParameterError):
            TwdpParams(k=-0.5, gamma=0.0)


def identity_lhs_series(a: float, b: float, terms: int) -> float:
    """sum_m a^m / m! 2F1(-m, -m; 1; b), summed in long double."""
    acc = np.longdouble(0.0)
    coef = np.longdouble(1.0)
    for m in range(terms):
        acc += coef * np.longdouble(hyp2f1_poly(m, b))
        coef = coef * np.longdouble(a) / (m + 1)
    return float(acc)


def exp_i0(a: float, b: float) -> float:
    """The library's exp * I0 kernel at the identity's right side."""
    ld = np.longdouble
    return _exp_i0(ld(1), ld(a) + ld(a) * ld(b), 2 * ld(a) * np.sqrt(ld(b)))


class TestExpI0Identity:
    """sum_m a^m/m! 2F1(-m,-m;1;b) = exp(a+ab) I_0(2a sqrt b), the identity
    that links the MGF series to its closed form, and specfun._exp_i0, the
    closed form's kernel, on its right side."""

    def test_trivial_points(self):
        assert identity_lhs_series(0.0, 0.3, 10) == 1.0
        assert identity_lhs_series(1.0, 0.0, 30) == pytest.approx(math.e, rel=1e-15, abs=0)
        assert exp_i0(0.0, 0.3) == 1.0
        assert exp_i0(1.0, 0.0) == pytest.approx(math.e, rel=1e-15, abs=0)

    def test_sixty_term_series_match(self):
        lhs = identity_lhs_series(5.0, 0.25, 60)
        assert identity_rhs_mp(5.0, 0.25) == pytest.approx(lhs, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", [0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 1.0])
    def test_identity_grid(self, a, b):
        # run the series to convergence; 60 terms is far from enough at a = 20
        lhs = identity_lhs_series(a, b, 500)
        rhs = identity_rhs_mp(a, b)
        assert abs(lhs - rhs) / rhs <= 1e-11
        assert exp_i0(a, b) == pytest.approx(rhs, rel=1e-14, abs=0)

    def test_large_scale_survives(self):
        # naive exp(a + a b) I0(...) would overflow well before this
        v = exp_i0(690.0, 0.0)
        assert math.isfinite(v) and v > 1e299
        assert v == pytest.approx(identity_rhs_mp(690.0, 0.0), rel=1e-14, abs=0)


_P = TwdpParams(k=8.0, gamma=0.5)
_QPSK = ModulationSpec(4)
# every public function of the average SNR gamma0, at valid other arguments
_OF_GAMMA0 = {
    "mgf_series": lambda g0: mgf_series(_P, g0, -1.0),
    "mgf_series_grid": lambda g0: mgf_series_grid(_P, g0, [-1.0]),
    "mgf_closed": lambda g0: mgf_closed(_P, g0, -1.0),
    "cdf_snr": lambda g0: cdf_snr(_P, g0, 1.0),
    "asep_exact": lambda g0: asep_exact(_P, _QPSK, g0),
    "asep_exact_grid": lambda g0: asep_exact_grid(_P, _QPSK, [10.0, g0]),
    "asep_asymptotic": lambda g0: asep_asymptotic(_P, _QPSK, g0),
    "asep_quadrature": lambda g0: asep_quadrature(_P, _QPSK, g0),
    "simulate_psk_ser": lambda g0: simulate_psk_ser(_P, _QPSK, g0, SimConfig(n_samples=1000)),
}


@pytest.mark.parametrize("gamma0", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("fn", sorted(_OF_GAMMA0))
def test_gamma0_must_be_positive_and_finite(fn, gamma0):
    with pytest.raises(InvalidParameterError, match="gamma0"):
        _OF_GAMMA0[fn](gamma0)


class TestSeriesTypes:
    def test_series_result_fields(self):
        r = SeriesResult(1.0, 10, 1e-9)
        assert r.cancellation_ratio == 1.0
        assert r.terms_used <= _MAX_TERMS
