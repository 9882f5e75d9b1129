"""Stable special-function kernel used by the distribution and error-rate code.

Everything here is scalar-oriented and deliberately conservative about
floating-point behaviour:

* Modified Bessel functions are always exponentially scaled, ive(nu, x) =
  exp(-x) I_nu(x), produced by a downward Miller recurrence normalized with
  ive_0(x) + 2 sum_k ive_k(x) = 1.  Only ratios enter, so the ladder cannot
  overflow, and callers assemble exponents symbolically and exponentiate once.
* The hypergeometric polynomials run on stable three-term recurrences in the
  order m: 1F1(1-m; 2; x) is a scaled Laguerre polynomial and 2F1(-m, -m; 1; b)
  a scaled Legendre polynomial.  Their monomial forms cancel catastrophically
  for m beyond ~45 (the 1F1 coefficients alternate), so the finite sums are
  kept only where they are safe: the all-positive 2F1 sum is the public
  reference implementation and the cross-check for the recurrence.
* 2F1(3/2, 1+m; 2; z) for z <= 0 goes through the Pfaff transform
  2F1(a, b; c; z) = (1-z)^(-b) 2F1(c-a, b; c; z/(z-1)) whose transformed
  series has all-positive terms on [0, 1), so it converges for every z <= 0
  without cancellation.
* The Appell function F1(3/2; 1/2, 1+m; 5/2; x, y) is integrated in its Euler
  form; the endpoint singularity at x = 1 is handled with a QAWS rule.

Alternating sums (the envelope/SNR series elsewhere in the package) can
cancel by many orders of magnitude for strong specular power, so all series
run on 80-bit long doubles by default and the summation helpers report the
cancellation ratio sum|t_m| / |sum t_m|.  Callers rerun the same generator in
mpmath arithmetic when that ratio would visibly contaminate the result
(run_with_rescue).  A pass with double-longdouble kernels (hi/lo pairs of
long doubles built from error-free transformations, section at the end)
runs them instead of mpmath ones while the escalated precision stays
within _DD_MAX_DPS digits; only the outer sum is then in mpmath.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import mpmath as mp
import numpy as np
from scipy import integrate

from .errors import (
    CancellationLossError,
    InvalidParameterError,
    QuadratureError,
    RangeOverflowError,
    SeriesDivergenceError,
)

_LD = np.longdouble
_LD_EPS = float(np.finfo(np.longdouble).eps)
# rounding-error inflation factor for the per-term error model
_ERR_SAFETY = 4.0
# highest working precision (decimal digits) the double-longdouble kernels
# meet; see the double-longdouble section below for the error bound, which
# assumes the x87 64-bit significand (elsewhere the kernels stay unused)
_DD_MAX_DPS = 34 if np.finfo(np.longdouble).nmant == 63 else 0

_log = logging.getLogger("twdp")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series.

    The stopping rule requires `consec_below` consecutive terms with
    |t_m| < rel_tol |partial sum| before accepting the sum; the model's
    series alternate in sign, so a single small term is not a safe stop.
    """

    rel_tol: float = 1e-12
    max_terms: int = 500
    consec_below: int = 3

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise InvalidParameterError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise InvalidParameterError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.consec_below < 1:
            raise InvalidParameterError(
                f"consec_below must be >= 1, got {self.consec_below}"
            )


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    trunc_estimate is |last included term| / |value|; cancellation_ratio is
    sum|t_m| / |sum t_m| and equals 1 for series with single-signed terms.
    """

    value: float
    terms_used: int
    trunc_estimate: float
    cancellation_ratio: float = 1.0


class _Arith:
    """Minimal scalar arithmetic context (float64 / longdouble / mpmath).

    `dd` marks an mpmath context whose precision the double-longdouble
    kernels meet; a pass that has such kernels may run them instead of
    pure mpmath ones.
    """

    __slots__ = ("name", "cast", "exp", "expm1", "log1p", "sqrt", "eps", "pi", "dd")

    def __init__(self, name, cast, exp, expm1, log1p, sqrt, eps, pi, dd=False):
        self.name = name
        self.cast = cast
        self.exp = exp
        self.expm1 = expm1
        self.log1p = log1p
        self.sqrt = sqrt
        self.eps = eps
        self.pi = pi
        self.dd = dd


_ARITH_LD = _Arith(
    name="longdouble",
    cast=_LD,
    exp=np.exp,
    expm1=np.expm1,
    log1p=np.log1p,
    sqrt=np.sqrt,
    eps=_LD_EPS,
    pi=_LD(np.pi),
)


def _arith_mp(dd_kernels: bool = False) -> _Arith:
    """mpmath context bound to the *current* working precision."""
    return _Arith(
        name=f"mp{mp.mp.dps}",
        cast=mp.mpf,
        exp=mp.exp,
        expm1=mp.expm1,
        log1p=lambda x: mp.log(1 + x),
        sqrt=mp.sqrt,
        eps=float(mp.mpf(10) ** (-mp.mp.dps)),
        pi=+mp.pi,
        dd=dd_kernels and mp.mp.dps <= _DD_MAX_DPS,
    )


class KahanSum:
    """Compensated accumulator; works for float, longdouble and mpf alike."""

    __slots__ = ("total", "_c")

    def __init__(self, zero=0.0):
        self.total = zero
        self._c = zero

    def add(self, x):
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def _run_series(
    terms: Iterator, ctl: SeriesControl, n_limit: int | None = None, min_terms: int = 0
):
    """Sum `terms` under the SeriesControl stopping rule.

    Returns (sum, terms_used, trunc_estimate, possum, converged).  `possum`
    accumulates |t_m| so callers can judge cancellation.  All quantities stay
    in the generator's arithmetic type.

    `min_terms` disarms the stopping rule for the first terms.  The
    alternating sums here have envelopes that dip right after the leading
    term and only then climb through a hump near m = K (1+Gamma)^2 /
    (1+Gamma^2); without the guard the consecutive-small-term rule can fire
    inside that dip and drop the entire hump.
    """
    limit = ctl.max_terms if n_limit is None else min(ctl.max_terms, n_limit)
    guard = min(min_terms, limit)
    acc = None
    pos = None
    below = 0
    last = None
    n = 0
    for t in terms:
        if acc is None:
            zero = t * 0
            acc = KahanSum(zero)
            pos = KahanSum(zero)
        acc.add(t)
        pos.add(abs(t))
        last = t
        n += 1
        if n >= guard and abs(t) <= ctl.rel_tol * abs(acc.total):
            below += 1
            if below >= ctl.consec_below:
                return acc.total, n, abs(last), pos.total, True
        else:
            below = 0
        if n >= limit:
            return acc.total, n, abs(last), pos.total, False
    # generator exhausted on its own (finite series)
    if acc is None:
        raise InvalidParameterError("series generator produced no terms")
    return acc.total, n, abs(last), pos.total, True


def term_hump_guard(k: float, gamma: float) -> int:
    """Stopping-rule guard for the alternating envelope/SNR/error-rate series.

    Their term magnitudes peak near m = K (1+Gamma)^2 / (1+Gamma^2); the
    stopping rule must not engage before that hump has been crossed.
    """
    return int(math.ceil(k * (1.0 + gamma) ** 2 / (1.0 + gamma * gamma))) + 3


def needs_rescue(possum_abs, value_abs, eps: float, rel_target: float, abs_floor: float = 0.0) -> bool:
    """Whether the estimated summation roundoff breaches the accuracy target."""
    est = _ERR_SAFETY * eps * float(possum_abs)
    return est > max(abs_floor, rel_target * float(value_abs))


def rescue_dps(cancellation_ratio: float, digits: int = 17) -> int:
    """Working decimal precision needed to sum through a given cancellation."""
    if cancellation_ratio <= 1.0:
        return digits
    return digits + int(math.ceil(math.log10(cancellation_ratio)))


def run_with_rescue(
    pass_fn: Callable,
    rel_target: float,
    abs_floor: float = 0.0,
    max_dps: int = 120,
    what: str = "series",
    dd_kernels: bool = False,
):
    """Run a summation pass, escalating working precision until trustworthy.

    pass_fn(arith) must return (value, terms_used, trunc, possum_abs, ratio)
    where possum_abs is sum|t_m| on the final value's scale.  A heavily
    cancelled sum reports a ratio that is only a lower bound (the computed
    total is then noise at the working epsilon), so after each escalation the
    result is re-checked and the precision grows at least geometrically.
    Raises CancellationLossError once max_dps would be exceeded.

    dd_kernels says pass_fn has double-longdouble kernels; an escalated pass
    within _DD_MAX_DPS digits then gets an arithmetic with `dd` set.  Each
    escalation is logged at DEBUG level on the "twdp" logger.
    """
    be = _ARITH_LD
    value, n, trunc, possum_abs, ratio = pass_fn(be)
    eps = be.eps
    dps = 0
    while needs_rescue(possum_abs, abs(value), eps, rel_target, abs_floor):
        est = rescue_dps(ratio if math.isfinite(ratio) else 1e30)
        dps = max(est, 2 * dps) if dps else est
        if dps > max_dps:
            raise CancellationLossError(
                f"{what} needs about {dps} digits (cancellation ratio {ratio:.2e})",
                ratio,
            )
        with mp.workdps(dps):
            failed, be = be.name, _arith_mp(dd_kernels)
            _log.debug(
                "%s: cancellation ratio %.3g in the %s pass; "
                "rerunning at %d digits in %s arithmetic",
                what, ratio, failed, dps, "dd" if be.dd else "mp",
            )
            value, n, trunc, possum_abs, ratio = pass_fn(be)
        eps = 10.0 ** (-dps)
    return value, n, trunc, ratio


# ----------------------------------------------------------------------------
# scaled modified Bessel ladder


def _ive_small_x(x, nu_max: int, be: _Arith):
    """Power series per order, adequate for x < 0.5 where the ladder start
    offset would dwarf the work."""
    out = []
    half = be.cast(x) / 2
    damp = be.exp(-be.cast(x))
    h2 = half * half
    fact = be.cast(1.0)
    powm = be.cast(1.0)
    for m in range(nu_max + 1):
        if m > 0:
            fact = fact * m
            powm = powm * half
        term = powm / fact
        s = term
        k = 0
        while True:
            k += 1
            term = term * h2 / (k * (m + k))
            s = s + term
            if abs(term) <= abs(s) * be.eps or k > 60:
                break
        out.append(s * damp)
    return out


def _ive_ladder(x, nu_max: int, be: _Arith = _ARITH_LD):
    """exp(-x) I_nu(x) for nu = 0..nu_max, x >= 0 scalar.

    Downward recurrence I_{k-1} = I_{k+1} + (2k/x) I_k from a seed far enough
    above max(nu_max, x) that the contamination of the minimal solution is
    below working precision, then normalized via sum_k eps_k ive_k = 1.
    """
    xf = float(x)
    if xf < 0:
        raise InvalidParameterError(f"bessel argument must be >= 0, got {x}")
    if xf == 0.0:
        one = be.cast(1.0)
        return [one] + [one * 0] * nu_max
    if xf > 1e7:
        raise InvalidParameterError("bessel ladder limited to x <= 1e7")
    if xf < 0.5:
        return _ive_small_x(x, nu_max, be)

    digits = -math.log(be.eps)
    start = nu_max + int(math.ceil(math.sqrt(2.6 * max(xf, 1.0) * digits))) + 14
    xb = be.cast(x)
    ip1 = be.cast(0.0)
    ik = be.cast(1e-12)
    ladder = [be.cast(0.0)] * (nu_max + 1)
    norm = KahanSum(be.cast(0.0))
    for k in range(start, 0, -1):
        im1 = ip1 + (2 * k / xb) * ik
        if k - 1 <= nu_max:
            ladder[k - 1] = im1
        norm.add(2 * ik)  # orders k >= 1 enter the normalization twice
        ip1, ik = ik, im1
    norm.add(ik)  # the k = 0 value enters once
    total = norm.total
    return [v / total for v in ladder]


def bessel_i_scaled(nu: int, x: float) -> float:
    """Exponentially scaled modified Bessel function exp(-x) I_nu(x)."""
    if not isinstance(nu, (int, np.integer)) or nu < 0:
        raise InvalidParameterError(f"nu must be a nonnegative integer, got {nu}")
    if x < 0 or not math.isfinite(x):
        raise InvalidParameterError(f"x must be finite and >= 0, got {x}")
    return float(_ive_ladder(x, int(nu))[int(nu)])


# ----------------------------------------------------------------------------
# hypergeometric polynomials


def _hyp1f1_seq(x, be: _Arith) -> Iterator:
    """Yield 1F1(1 - m; 2; x) for m = 1, 2, 3, ... by the Laguerre recurrence.

    1F1(1-m; 2; x) = L_{m-1}^{(1)}(x) / m, so
    (m+1) G_{m+1} = (2m - x) G_m - (m-1) G_{m-1} with G_1 = 1.
    Evaluating the monomial form instead loses the polynomial completely for
    m beyond ~45 in the oscillatory region x < 4m (internal cancellation far
    past any working precision); the recurrence is stable everywhere tested
    (m <= 200, x <= 600) and costs O(1) per order.
    """
    gm1 = be.cast(0.0)
    gm = be.cast(1.0)
    m = 1
    while True:
        yield gm
        gm1, gm = gm, ((2 * m - x) * gm - (m - 1) * gm1) / (m + 1)
        m += 1


def _hyp1f1_1m2(m: int, x, be: _Arith):
    """1F1(1 - m; 2; x) for a single integer m >= 1."""
    seq = _hyp1f1_seq(x, be)
    for _ in range(m - 1):
        next(seq)
    return next(seq)


def hyp1f1_poly(m: int, x: float) -> float:
    """Confluent hypergeometric 1F1(1 - m; 2; x) for integer m >= 1."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidParameterError(f"m must be a positive integer, got {m}")
    return float(_hyp1f1_1m2(int(m), _LD(x), _ARITH_LD))


def _hyp2f1_neg_mm(m: int, b, be: _Arith):
    """2F1(-m, -m; 1; b) = sum_j C(m, j)^2 b^j; all terms positive for b >= 0."""
    t = be.cast(1.0)
    acc = KahanSum(t * 0)
    acc.add(t)
    for j in range(m):
        r = be.cast(m - j) / (j + 1)
        t = t * r * r * b
        acc.add(t)
    return acc.total


def _hyp2f1_neg_mm_seq(b, be: _Arith) -> Iterator:
    """Yield 2F1(-m, -m; 1; b) for m = 0, 1, 2, ... in O(1) per order.

    2F1(-m, -m; 1; b) = (1-b)^m P_m((1+b)/(1-b)) with P_m the Legendre
    polynomial, giving F_{m+1} = ((2m+1)(1+b) F_m - m (1-b)^2 F_{m-1})/(m+1).
    All quantities are positive for b in [0, 1]; the recurrence tracks the
    dominant solution, so it is stable upward.  The finite-sum form above is
    the independent cross-check.
    """
    omb2 = (1 - b) * (1 - b)
    opb = 1 + b
    fm1 = be.cast(0.0)
    fm = be.cast(1.0)
    m = 0
    while True:
        yield fm
        fm1, fm = fm, ((2 * m + 1) * opb * fm - m * omb2 * fm1) / (m + 1)
        m += 1


def hyp2f1_poly(m: int, b: float) -> float:
    """Gauss hypergeometric 2F1(-m, -m; 1; b) for integer m >= 0, b in [0, 1]."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"m must be a nonnegative integer, got {m}")
    if not 0.0 <= b <= 1.0:
        raise InvalidParameterError(f"b must lie in [0, 1], got {b}")
    return float(_hyp2f1_neg_mm(int(m), _LD(b), _ARITH_LD))


def _hyp2f1_3half_terms(m: int, w, be: _Arith) -> Iterator:
    """Terms of 2F1(1/2, 1+m; 2; w), the Pfaff-transformed Gauss series."""
    t = be.cast(1.0)
    j = 0
    while True:
        yield t
        t = t * w * (2 * j + 1) * (j + 1 + m) / ((j + 2) * (j + 1) * 2)
        j += 1


def _hyp2f1_3half(m: int, z, ctl: SeriesControl, be: _Arith):
    """Backend-generic core of hyp2f1_3half; returns (value, n, trunc)."""
    zb = be.cast(z)
    if zb == 0:
        return be.cast(1.0), 1, be.cast(0.0)
    w = zb / (zb - 1)
    pref = be.exp(-(1 + m) * be.log1p(-zb))
    s, n, last, _, ok = _run_series(_hyp2f1_3half_terms(m, w, be), ctl)
    if not ok:
        raise SeriesDivergenceError(
            f"2F1(3/2, {1 + m}; 2; {float(z)}) did not converge in {n} terms", n
        )
    return pref * s, n, last / abs(s)


def hyp2f1_3half(m: int, z: float, ctl: SeriesControl | None = None) -> SeriesResult:
    """Gauss hypergeometric 2F1(3/2, 1+m; 2; z) for z <= 0.

    Evaluated through the Pfaff transform so the series argument z/(z-1)
    lies in [0, 1); every transformed term is positive, so there is no
    cancellation, only slow convergence as z -> -inf.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"m must be a nonnegative integer, got {m}")
    if z > 0:
        raise InvalidParameterError(f"z must be <= 0, got {z}")
    ctl = ctl or SeriesControl()
    value, n, trunc = _hyp2f1_3half(int(m), z, ctl, _ARITH_LD)
    return SeriesResult(float(value), n, float(trunc), 1.0)


# ----------------------------------------------------------------------------
# Appell F1 via the Euler integral


_APPELL_ABS_TOL = 1e-11


def appell_f1(m: int, x: float, y: float) -> float:
    """Appell hypergeometric F1(3/2; 1/2, 1+m; 5/2; x, y), x in [0, 1], y <= 0.

    Euler form: F1 = (3/2) int_0^1 sqrt(t) (1-x t)^(-1/2) (1-y t)^(-(1+m)) dt.
    The integrand is bounded except for the integrable (1-t)^(-1/2) endpoint
    when x = 1, which is delegated to a QAWS algebraic-weight rule.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"m must be a nonnegative integer, got {m}")
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"x must lie in [0, 1], got {x}")
    if y > 0:
        raise InvalidParameterError(f"y must be <= 0, got {y}")
    b2 = int(m) + 1
    if x >= 1.0 - 1e-14:
        val, err = integrate.quad(
            lambda t: (1.0 - y * t) ** (-b2),
            0.0,
            1.0,
            weight="alg",
            wvar=(0.5, -0.5),
            epsabs=_APPELL_ABS_TOL / 10,
            epsrel=1e-13,
            limit=200,
        )
    else:
        val, err = integrate.quad(
            lambda t: math.sqrt(t) * (1.0 - x * t) ** -0.5 * (1.0 - y * t) ** (-b2),
            0.0,
            1.0,
            epsabs=_APPELL_ABS_TOL / 10,
            epsrel=1e-13,
            limit=200,
        )
    val *= 1.5
    err *= 1.5
    if err > _APPELL_ABS_TOL:
        raise QuadratureError(
            f"Appell F1 quadrature reached {err:.3e} > {_APPELL_ABS_TOL:.0e}", err
        )
    return val


# ----------------------------------------------------------------------------
# Marcum Q


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q_1(a, b).

    Series of Poisson(a^2/2) weights against the Poisson(b^2/2) CDF:
    Q_1(a, b) = sum_k e^{-a^2/2} (a^2/2)^k / k! * e^{-b^2/2} sum_{j<=k} (b^2/2)^j / j!.
    All terms are positive; truncation error is bounded by the remaining
    Poisson weight.
    """
    if a < 0 or b < 0:
        raise InvalidParameterError("marcum_q1 requires a >= 0 and b >= 0")
    h = _LD(a) * _LD(a) / 2
    x = _LD(b) * _LD(b) / 2
    if float(h) > 5000.0:
        raise InvalidParameterError("marcum_q1 limited to a^2/2 <= 5000")
    w = np.exp(-h)  # Poisson weight at k = 0
    g = np.exp(-x)  # Poisson pmf of x at j = 0
    cdf = KahanSum(_LD(0.0))
    cdf.add(g)
    acc = KahanSum(_LD(0.0))
    wsum = KahanSum(_LD(0.0))
    k = 0
    while True:
        acc.add(w * cdf.total)
        wsum.add(w)
        if 1.0 - float(wsum.total) < 1e-19 and k > float(h):
            break
        k += 1
        if k > 100000:
            break
        w = w * h / k
        g = g * x / k
        cdf.add(g)
    return min(1.0, max(0.0, float(acc.total)))


# ----------------------------------------------------------------------------
# exp * I0 identity right-hand side


def exp_i0_identity_rhs(a: float, b: float) -> float:
    """exp(a + a b) I_0(2 a sqrt(b)) with one exponentiation.

    Writing I_0(x) = e^x ive_0(x) turns the product into
    exp(a (1 + sqrt(b))^2) ive_0(2 a sqrt(b)), a single exponent plus a
    scaled Bessel, so intermediate overflow cannot occur before the result
    itself leaves the double range.
    """
    if a < 0 or not math.isfinite(a):
        raise InvalidParameterError(f"a must be finite and >= 0, got {a}")
    if not 0.0 <= b <= 1.0:
        raise InvalidParameterError(f"b must lie in [0, 1], got {b}")
    ab = _LD(a)
    bb = _LD(b)
    xarg = 2 * ab * np.sqrt(bb)
    expo = ab + ab * bb + xarg  # = a (1 + sqrt(b))^2
    if float(expo) > 11300.0:
        raise RangeOverflowError(
            f"exp(a(1+sqrt(b))^2) with exponent {float(expo):.1f} is not representable"
        )
    value = np.exp(expo) * _ive_ladder(xarg, 0)[0]
    out = float(value)
    if math.isinf(out):
        raise RangeOverflowError(
            f"exp(a+ab) I0(2a sqrt(b)) overflows float64 for a={a}, b={b}"
        )
    return out


# ----------------------------------------------------------------------------
# tanh-sinh rule (shared by the error-rate bracket integrals)


_TS_CACHE: dict = {}


def tanh_sinh_rule(level: int, be: _Arith = _ARITH_LD):
    """Nodes and weights for int_0^1 f(t) dt, tolerant of endpoint singularities.

    Returns (t, 1-t, w) with 1-t carried separately so integrands such as
    (1-t)^(-1/2) keep full precision near t = 1.  Spacing h = 2^-level;
    nodes stop once the weight cannot influence the target precision even
    against an inverse-square-root endpoint factor.
    """
    key = (level, be.name)
    cached = _TS_CACHE.get(key)
    if cached is not None:
        return cached
    if be.name == "longdouble":
        h = np.longdouble(0.5) ** level
        # weight ~ exp(-pi/2 sinh(u)); stop when even e^{+s} growth is buried
        smax = 2.0 * (-math.log(be.eps)) + 20.0
        umax = math.asinh(2.0 * smax / math.pi)
        ks = np.arange(-int(umax / float(h)) - 1, int(umax / float(h)) + 2)
        u = ks.astype(np.longdouble) * h
        s = np.sinh(u) * np.longdouble(math.pi / 2)
        e2s = np.exp(-2 * np.abs(s))
        omt_mag = e2s / (1 + e2s)  # 1/(1+e^{2|s|})
        t = np.where(s >= 0, 1 - omt_mag, omt_mag)
        omt = np.where(s >= 0, omt_mag, 1 - omt_mag)
        sech2 = 4 * e2s / (1 + e2s) ** 2
        w = h * np.longdouble(math.pi / 4) * np.cosh(u) * sech2
        keep = w > np.longdouble(1e-4000)
        out = (t[keep], omt[keep], w[keep])
    else:
        with mp.extraprec(20):
            h = mp.mpf(1) / (1 << level)
            smax = mp.mpf(2.3) * mp.mp.dps * 2 + 20
            umax = mp.asinh(2 * smax / mp.pi)
            kmax = int(umax / h) + 1
            t, omt, w = [], [], []
            for k in range(-kmax, kmax + 1):
                u = k * h
                s = mp.pi / 2 * mp.sinh(u)
                e2s = mp.exp(-2 * abs(s))
                mag = e2s / (1 + e2s)
                t.append(1 - mag if s >= 0 else mag)
                omt.append(mag if s >= 0 else 1 - mag)
                w.append(h * mp.pi / 4 * mp.cosh(u) * 4 * e2s / (1 + e2s) ** 2)
        out = (t, omt, w)
    _TS_CACHE[key] = out
    return out


# ----------------------------------------------------------------------------
# double-longdouble arithmetic
#
# A dd value is a pair (hi, lo) of long-double arrays whose unevaluated sum
# carries about 128 bits (38 digits) on x87 80-bit long doubles, u = 2^-64.
# The error-free transformations (Dekker, Numer. Math. 18, 1971; Hida, Li &
# Bailey, ARITH-15, 2001) need only round-to-nearest; long doubles have no
# fused multiply-add, so products go through Veltkamp's split.  A dd product
# errs by at most 7 u^2 relative (Joldes, Muller & Popescu, ACM TOMS 44(4),
# 2017), so a value built by m chained products of factors that are
# themselves within 15 u^2 stays within about 22 m u^2 = 6.5e-38 m: below
# 10^-_DD_MAX_DPS for the first 1,500 orders.

_DD_SPLITTER = _LD(2**32 + 1)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e == a + b exactly (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _fast_two_sum(a, b):
    """_two_sum for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """(hi, lo) with hi + lo == a exactly and at most 32 significant bits each."""
    c = _DD_SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b, b_split=None):
    """(p, e) with p = fl(a b) and p + e == a b exactly (Dekker).

    b_split is _split(b), for a factor reused across many products.
    """
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b) if b_split is None else b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(a, b, b_split=None):
    (ah, al), (bh, bl) = a, b
    p, e = _two_prod(ah, bh, b_split)
    return _fast_two_sum(p, e + (ah * bl + al * bh))


def _dd_add(a, b):
    """a + b for dd values of one sign (no cancellation to guard against)."""
    (ah, al), (bh, bl) = a, b
    s, e = _two_sum(ah, bh)
    return _fast_two_sum(s, e + (al + bl))


def _dd_div(a, b):
    (ah, al), (bh, bl) = a, b
    q = ah / bh
    p, e = _two_prod(q, bh)
    r = (((ah - p) - e) + al) - q * bl  # a - q b; ah - p is exact
    return _fast_two_sum(q, r / bh)


def _dd_sqrt(a):
    ah, al = a
    s = np.sqrt(ah)
    p, e = _two_prod(s, s)
    return _fast_two_sum(s, (((ah - p) - e) + al) / (2 * s))


def _extract(x, sigma):
    """(q, x - q): q is x rounded to the grid of ulp(sigma), sigma a power of
    two; both parts are exact, and |x - q| <= 2^-64 sigma."""
    q = (sigma + x) - sigma
    return q, x - q


def _dd_row_sums(a):
    """Row sums of a dd array with hi >= 0, each as the exact sum of a
    column of the returned (3, rows) long-double array.

    The parts are within 2^-120 of each row sum (Rump, Ogita & Oishi, SIAM
    J. Sci. Comput. 31(1), 2008).  A power of two sigma above twice the row
    sum puts every hi on a grid whose partial sums stay below sigma, so they
    add exactly.  The remainders are below 2^-64 sigma each, so a grid
    2^bits >= n + 2 times above that sums them exactly too, leaving parts
    below 2^-100 of the row sum.  Those and the lo parts, below 2^-64 of
    theirs, are summed with rounding.
    """
    hi, lo = a
    _, e = np.frexp(hi.sum(axis=-1, keepdims=True))
    sigma = np.ldexp(_LD(1), e + 1)
    q, r = _extract(hi, sigma)
    qr, rr = _extract(r, np.ldexp(sigma, (hi.shape[-1] + 2).bit_length() - 64))
    return np.stack((q.sum(axis=-1), qr.sum(axis=-1), rr.sum(axis=-1) + lo.sum(axis=-1)))


def _ld_sums_to_mpf(parts):
    """The column sums of a long-double array as mpf values, each exact
    until rounded once to the working precision."""
    m, e = np.frexp(parts)
    out = []
    for mans, exps in zip(np.ldexp(m, 64).T, (e - 64).T.tolist()):
        e0 = min(exps)
        out.append(mp.mpf((sum(int(mv) << (ev - e0) for mv, ev in zip(mans, exps)), e0)))
    return out


def _dd_from_mpf(values):
    """(hi, lo) long-double arrays nearest to a sequence of mpf values."""
    def to_ld(x):  # exact for x with at most 64 significant bits
        man, exp = x.man_exp  # unsigned mantissa
        return np.ldexp(_LD(-man if x < 0 else man), exp)

    hi, lo = [], []
    with mp.workprec(64):
        for v in values:
            h = +v
            hi.append(to_ld(h))
            lo.append(to_ld(v - h))
    return np.array(hi), np.array(lo)


def tanh_sinh_rule_dd(level: int):
    """tanh_sinh_rule's (t, 1-t, w) as dd arrays, for double-longdouble kernels.

    Built once per level in mpmath, with the node range of a 40-digit rule,
    then rounded to hi/lo pairs, so each entry holds about 38 digits.
    """
    key = (level, "dd")
    cached = _TS_CACHE.get(key)
    if cached is None:
        with mp.workdps(40):
            rule = tanh_sinh_rule(level, _arith_mp())
        cached = _TS_CACHE[key] = tuple(_dd_from_mpf(col) for col in rule)
    return cached
