"""Special-function kernel against brute-force and quadrature oracles."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special

from twdp import (
    InvalidParameterError,
    RangeOverflowError,
    SeriesDivergenceError,
    SeriesResult,
    bessel_i_scaled,
    exp_i0_identity_rhs,
    marcum_q1,
)
from twdp.specfun import (
    _ARITH_DD,
    _DD,
    _MAX_TERMS,
    _arith_mp,
    _dd_row_sums,
    _fast_two_sum,
    _split,
    _two_prod,
    _two_sum,
    tanh_sinh_rule,
)

from conftest import (
    appell_f1,
    appell_f1_double_series,
    euler_2f1,
    gauss_2f1_series,
    hyp1f1_poly,
    hyp2f1_3half,
    hyp2f1_poly,
    tanh_sinh_mp_full,
)


def ive_maclaurin(nu: int, x: float, terms: int = 40) -> float:
    """Brute-force scaled Bessel oracle: e^-x sum_k (x/2)^(nu+2k) / (k! (nu+k)!)."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (nu + 2 * k) / (math.factorial(k) * math.factorial(nu + k))
    return math.exp(-x) * total


class TestBesselIScaled:
    def test_at_zero(self):
        assert bessel_i_scaled(0, 0.0) == 1.0
        assert bessel_i_scaled(3, 0.0) == 0.0

    def test_i0_of_two_against_maclaurin(self):
        # 30-term power series of I_0(2), exponentially scaled
        assert bessel_i_scaled(0, 2.0) == pytest.approx(ive_maclaurin(0, 2.0, 30), rel=1e-14, abs=0)

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 10])
    def test_power_series_oracle_small_x(self, nu):
        for x in [1e-8, 1e-3, 0.1, 0.7, 2.0, 7.5, 18.0, 30.0]:
            assert bessel_i_scaled(nu, x) == pytest.approx(
                ive_maclaurin(nu, x, 80), rel=1e-13, abs=5e-300
            )

    def test_range_and_order_monotonicity(self):
        for x in [0.0, 0.4, 3.0, 42.0, 900.0]:
            vals = [bessel_i_scaled(nu, x) for nu in range(8)]
            assert 0.0 < vals[0] <= 1.0
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_three_term_recurrence_scaled(self):
        # ive_{nu-1}(x) - ive_{nu+1}(x) = (2 nu / x) ive_nu(x)
        for x in np.geomspace(0.5, 50.0, 12):
            for nu in (1, 2, 7, 20, 40):
                lhs = bessel_i_scaled(nu - 1, float(x)) - bessel_i_scaled(nu + 1, float(x))
                rhs = 2 * nu / float(x) * bessel_i_scaled(nu, float(x))
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-280)

    def test_against_scipy(self):
        for x in [0.3, 4.2, 77.0, 1300.0]:
            for nu in (0, 1, 6, 25):
                assert bessel_i_scaled(nu, x) == pytest.approx(
                    float(special.ive(nu, x)), rel=5e-14, abs=1e-300
                )

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            bessel_i_scaled(-1, 1.0)
        with pytest.raises(InvalidParameterError):
            bessel_i_scaled(0, -0.5)


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


def marcum_q1_integral_oracle(a: float, b: float) -> float:
    """Defining integral with a scaled Bessel factor to avoid overflow."""

    def f(t):
        return t * math.exp(-0.5 * (t - a) ** 2) * float(special.ive(0, a * t))

    v, _ = integrate.quad(f, b, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)
    return v


class TestMarcumQ1:
    def test_corner_values(self):
        assert marcum_q1(0.0, 0.0) == 1.0
        for b in (0.3, 1.0, 2.5):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2), rel=1e-14, abs=0)
        assert marcum_q1(3.0, 0.0) == 1.0

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.7, 2.2), (4.0, 4.0), (5.5, 1.1)])
    def test_integral_oracle(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_integral_oracle(a, b), rel=1e-12, abs=0)

    def test_monotonicity(self):
        a_grid = np.linspace(0.0, 5.0, 21)
        vals = [marcum_q1(float(a), 2.0) for a in a_grid]
        assert all(y >= x for x, y in zip(vals, vals[1:]))
        b_grid = np.linspace(0.0, 5.0, 21)
        vals = [marcum_q1(2.0, float(b)) for b in b_grid]
        assert all(y <= x for x, y in zip(vals, vals[1:]))

    def test_negative_arguments_rejected(self):
        with pytest.raises(InvalidParameterError):
            marcum_q1(-1.0, 0.0)


def identity_lhs_series(a: float, b: float, terms: int) -> float:
    """sum_m a^m / m! 2F1(-m, -m; 1; b), summed in long double."""
    acc = np.longdouble(0.0)
    coef = np.longdouble(1.0)
    for m in range(terms):
        acc += coef * np.longdouble(hyp2f1_poly(m, b))
        coef = coef * np.longdouble(a) / (m + 1)
    return float(acc)


class TestExpI0Identity:
    def test_trivial_points(self):
        assert exp_i0_identity_rhs(0.0, 0.3) == 1.0
        assert exp_i0_identity_rhs(1.0, 0.0) == pytest.approx(math.e, rel=1e-15, abs=0)

    def test_sixty_term_series_match(self):
        lhs = identity_lhs_series(5.0, 0.25, 60)
        assert exp_i0_identity_rhs(5.0, 0.25) == pytest.approx(lhs, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", [0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 1.0])
    def test_identity_grid(self, a, b):
        # run the series to convergence; 60 terms is far from enough at a = 20
        lhs = identity_lhs_series(a, b, 500)
        rhs = exp_i0_identity_rhs(a, b)
        assert abs(lhs - rhs) / rhs <= 1e-11

    def test_large_scale_survives(self):
        # naive exp(a + a b) I0(...) would overflow well before this
        v = exp_i0_identity_rhs(690.0, 0.0)
        assert math.isfinite(v) and v > 1e299

    def test_overflow_raises(self):
        with pytest.raises(RangeOverflowError):
            exp_i0_identity_rhs(800.0, 1.0)


class TestSeriesTypes:
    def test_series_result_fields(self):
        r = SeriesResult(1.0, 10, 1e-9)
        assert r.cancellation_ratio == 1.0
        assert r.terms_used <= _MAX_TERMS


class TestTanhSinhRule:
    def test_plain_polynomial(self):
        t, _, w = tanh_sinh_rule(6)
        assert float(np.sum(w * t ** 3)) == pytest.approx(0.25, rel=1e-14, abs=0)

    def test_endpoint_singularity(self):
        # int_0^1 sqrt(t / (1 - t)) dt = pi / 2
        t, omt, w = tanh_sinh_rule(8)
        val = float(np.sum(w * np.sqrt(t) / np.sqrt(omt)))
        assert val == pytest.approx(math.pi / 2, rel=1e-15, abs=0)

    @pytest.mark.parametrize("dps, nodes", [(40, 1457), (57, 1533)])
    def test_mp_table_mirrors_full_loop(self, dps, nodes):
        # the error-rate rescues' level; the mpmath table builds k >= 0 only
        with mp.workdps(dps):
            got = tanh_sinh_rule(7, _arith_mp())
            want = tanh_sinh_mp_full(7)
        assert len(want[0]) == nodes
        for col, ref in zip(got, want):
            assert col.tolist() == ref


# long doubles with a full 64-bit significand, either sign, moderate exponent
long_doubles = st.builds(
    lambda man, exp, neg: np.ldexp(np.longdouble(-man if neg else man), exp),
    st.integers(2**63, 2**64 - 1),
    st.integers(-300, 240),
    st.booleans(),
)


def exact(x) -> Fraction:
    return Fraction(*x.as_integer_ratio())


def exact_dd(x) -> Fraction:
    return exact(x.hi) + exact(x.lo)


U = Fraction(1, 2**64)  # unit roundoff of 64-bit significands


# normalized dd values hi + lo, |lo| <= 2^-65 |hi|
dd_values = st.builds(
    lambda hi, k: _DD(*_fast_two_sum(hi, np.ldexp(np.longdouble(k), -100) * hi)),
    long_doubles,
    st.integers(-(2**35), 2**35),
)


def mpf_exact(x) -> Fraction:
    man, exp = x.man_exp  # unsigned mantissa
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp


def significant_bits(x) -> int:
    num = abs(exact(x).numerator)
    return (num >> ((num & -num).bit_length() - 1)).bit_length() if num else 0


class TestDoubleLongdouble:
    @given(long_doubles, long_doubles)
    def test_two_sum_is_error_free(self, a, b):
        s, e = _two_sum(a, b)
        assert s == a + b
        assert exact(s) + exact(e) == exact(a) + exact(b)

    @given(long_doubles, long_doubles)
    def test_fast_two_sum_is_error_free(self, a, b):
        a, b = (a, b) if abs(a) >= abs(b) else (b, a)
        s, e = _fast_two_sum(a, b)
        assert exact(s) + exact(e) == exact(a) + exact(b)

    @given(long_doubles)
    def test_split_into_32_bit_halves(self, a):
        hi, lo = _split(a)
        assert exact(hi) + exact(lo) == exact(a)
        assert significant_bits(hi) <= 32 and significant_bits(lo) <= 32

    @given(long_doubles, long_doubles)
    def test_two_prod_is_error_free(self, a, b):
        p, e = _two_prod(a, b)
        assert p == a * b
        assert exact(p) + exact(e) == exact(a) * exact(b)

    @given(dd_values, dd_values)
    def test_dd_add_and_sub_within_3u2(self, a, b):
        self.check_add_sub(a, b)

    @given(dd_values, st.integers(-8, 8), st.integers(-(2**35), 2**35))
    def test_dd_add_and_sub_under_cancellation(self, a, ulps, k):
        # b within a few ulps of -a (and of a for the difference)
        _, e = np.frexp(a.hi)
        hi = a.hi + np.ldexp(np.longdouble(ulps), e - 64)
        b = _DD(*_fast_two_sum(hi, np.ldexp(np.longdouble(k), -100) * hi))
        self.check_add_sub(a, -b)

    @staticmethod
    def check_add_sub(a, b):
        bound = 3 * U**2 / (1 - 4 * U)
        for got, want in ((a + b, exact_dd(a) + exact_dd(b)), (a - b, exact_dd(a) - exact_dd(b))):
            assert abs(exact_dd(got) - want) <= bound * abs(want)

    @given(dd_values, dd_values)
    def test_dd_mul_within_8u2(self, a, b):
        want = exact_dd(a) * exact_dd(b)
        assert abs(exact_dd(a * b) - want) <= 8 * U**2 * abs(want)

    @given(dd_values, dd_values)
    def test_dd_div_within_13u2(self, a, b):
        want = exact_dd(a) / exact_dd(b)
        assert abs(exact_dd(a / b) - want) <= 13 * U**2 * abs(want)

    @given(st.lists(st.tuples(long_doubles, st.integers(-(2**40), 2**40)),
                    min_size=1, max_size=60))
    def test_row_sums_within_2_to_minus_119(self, items):
        # positive dd values hi + lo with |lo| far below ulp(hi)
        hi = np.array([abs(h) for h, _ in items])
        lo = np.array([np.ldexp(np.longdouble(k), -110) * h for h, (_, k) in zip(hi, items)])
        sums = _dd_row_sums(_DD(np.stack((hi, hi[::-1])), np.stack((lo, lo[::-1]))))
        want = sum(exact(h) + exact(l) for h, l in zip(hi, lo))
        for row in range(2):
            assert abs(exact_dd(sums[row]) - want) <= want / 2**119

    def test_setitem_resets_split_cache(self):
        third = np.longdouble(1) / 3
        a = _DD(np.array([third, 2 * third]), np.zeros(2, dtype=np.longdouble))
        b = _DD(np.array([third, third]), np.zeros(2, dtype=np.longdouble))
        split = a.hi_split()
        assert a.hi_split() is split  # kept for the next product
        a[1] = _DD(third / 7, third * 2.0**-70)
        assert a.hi_split() is not split
        fresh = _DD(a.hi.copy(), a.lo.copy())
        got, want = b * a, b * fresh
        assert (got.hi == want.hi).all() and (got.lo == want.lo).all()

    @pytest.mark.skipif(_ARITH_DD is None, reason="the dd tier needs x87 80-bit long doubles")
    def test_node_table_holds_38_digits(self):
        with mp.workdps(40):
            ref = tanh_sinh_rule(7, _arith_mp())
        for dd, col in zip(tanh_sinh_rule(7, _ARITH_DD), ref):
            for h, l, r in list(zip(dd.hi, dd.lo, col))[::50]:
                assert abs((exact(h) + exact(l)) / mpf_exact(r) - 1) < Fraction(1, 2**126)
