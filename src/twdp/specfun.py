"""Stable special-function kernel and the series engine used by the
distribution and error-rate code.

* Modified Bessel functions are always exponentially scaled, ive(nu, x) =
  exp(-x) I_nu(x), produced by a downward Miller recurrence normalized with
  ive_0(x) + 2 sum_k ive_k(x) = 1.  Only ratios enter, so the ladder cannot
  overflow, and callers assemble exponents symbolically and exponentiate once.
* 2F1(-m, -m; 1; b), the coefficient shared by the cdf, MGF and error-rate
  series, runs on the stable upward Legendre recurrence in the order m.

Every series in the package is summed by one engine, _sum_series, over an
array of points: each point has its own stopping rule and compensated sum.
The envelope/SNR series alternate and can cancel by many orders of magnitude
for strong specular power, so a pass runs on 80-bit long doubles first and
reports the cancellation ratio sum|t_m| / |sum t_m| of every point.
run_with_rescue reruns only the points whose ratio would visibly contaminate
the result, in mpmath arithmetic (numpy object arrays of mpf values), all
points that need the same precision in one pass.  A pass with
double-longdouble kernels (hi/lo pairs of long doubles built from error-free
transformations, section at the end) runs them instead of mpmath ones while
the escalated precision stays within _DD_MAX_DPS digits; only the outer sum
is then in mpmath.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from .errors import (
    CancellationLossError,
    InvalidParameterError,
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


@dataclass(frozen=True)
class _Arith:
    """The arithmetic of one summation pass and the points it runs on.

    Functions and `cast` act elementwise on arrays: long-double arrays, or
    object arrays of mpf values at the current mpmath precision.  `points`
    indexes the points of the grid the pass runs on (None: all of them).
    `dd` marks an mpmath context whose precision the double-longdouble
    kernels meet; a pass that has such kernels may run them instead of pure
    mpmath ones.
    """

    name: str
    cast: Callable
    exp: Callable
    expm1: Callable
    sqrt: Callable
    eps: float
    pi: object
    dd: bool = False
    points: np.ndarray | None = None

    def pick(self, values):
        """The entries of a grid array at this pass's points."""
        return values if self.points is None else values[self.points]


_ARITH_LD = _Arith(
    name="longdouble",
    cast=_LD,
    exp=np.exp,
    expm1=np.expm1,
    sqrt=np.sqrt,
    eps=_LD_EPS,
    pi=_LD(np.pi),
)


def _arith_mp(dd_kernels: bool = False, points=None) -> _Arith:
    """mpmath context bound to the *current* working precision."""
    return _Arith(
        name=f"mp{mp.mp.dps}",
        cast=np.frompyfunc(mp.mpf, 1, 1),
        exp=np.frompyfunc(mp.exp, 1, 1),
        expm1=np.frompyfunc(mp.expm1, 1, 1),
        sqrt=np.frompyfunc(mp.sqrt, 1, 1),
        eps=float(mp.mpf(10) ** (-mp.mp.dps)),
        pi=+mp.pi,
        dd=dd_kernels and mp.mp.dps <= _DD_MAX_DPS,
        points=points,
    )


def _kahan_add(total, comp, x):
    """One compensated (Kahan) step: (total, compensation) after adding x.

    Elementwise on arrays; works for float, long double and mpf alike.
    """
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _sum_series(term: Callable, size: int, ctl: SeriesControl, min_terms: int = 0,
                n_limit: int | None = None, freeze: bool = True):
    """Sum term(0) + term(1) + ... at every one of `size` points.

    term(m, live) returns the m-th terms of all points as one array (long
    double or mpf objects); it is called for m = 0, 1, 2, ... in order, so
    it may advance recurrences.  Only the terms at the points marked in the
    boolean array `live` are used, so a costly term may skip the others.
    Every point keeps a Kahan sum of its terms and of their magnitudes, and
    stops on its own under the SeriesControl rule.

    `min_terms` disarms the stopping rule for the first terms.  The
    alternating sums here have envelopes that dip right after the leading
    term and only then climb through a hump near m = K (1+Gamma)^2 /
    (1+Gamma^2); without the guard the consecutive-small-term rule can fire
    inside that dip and drop the entire hump.

    With `freeze` a point's sums stop with it, so its result does not depend
    on the other points of the grid.  Without it the sums of every point run
    on to the last point's stop, and only terms_used stays at the point's
    own stop.

    Returns arrays (sum, terms_used, |last term|, sum |t_m|, converged).
    """
    limit = ctl.max_terms if n_limit is None else min(ctl.max_terms, n_limit)
    guard = min(min_terms, limit)
    n = below = np.zeros(size, dtype=np.int64)
    done = np.zeros(size, dtype=bool)
    everywhere = ~done
    for m in range(limit):
        t = term(m, ~done if freeze else everywhere)
        t_abs = abs(t)
        if m == 0:
            s = comp = pos = pos_comp = t * 0
        new = (*_kahan_add(s, comp, t), *_kahan_add(pos, pos_comp, t_abs), t_abs)
        if freeze and done.any():
            new = [np.where(done, old, v) for old, v in zip((s, comp, pos, pos_comp, last), new)]
        s, comp, pos, pos_comp, last = new
        small = m + 1 >= guard and t_abs <= ctl.rel_tol * abs(s)
        below = np.where(small, below + 1, 0)
        n = np.where(done, n, m + 1)
        done = done | (below >= ctl.consec_below)
        if done.all():
            break
    return s, n, last, pos, done


def _pass_result(what: str, pref, s, n, last, pos, converged):
    """A pass's return value from its sums: (value, terms, terms_used,
    trunc, possum_abs, ratio), see run_with_rescue."""
    if not converged.all():
        stop = int(n[~converged][0])
        raise SeriesDivergenceError(f"{what} series did not converge in {stop} terms", stop)
    s_abs = abs(s)
    nonzero = s_abs > 0
    safe = np.where(nonzero, s_abs, 1)
    trunc = np.where(nonzero, (last / safe).astype(float), math.inf)
    ratio = np.where(nonzero, (pos / safe).astype(float), math.inf)
    return ((pref * s).astype(float), int(n.sum()), n, trunc,
            (pref * pos).astype(float), ratio)


def term_hump_guard(k: float, gamma: float) -> int:
    """Stopping-rule guard for the alternating envelope/SNR/error-rate series.

    Their term magnitudes peak near m = K (1+Gamma)^2 / (1+Gamma^2); the
    stopping rule must not engage before that hump has been crossed.
    """
    return int(math.ceil(k * (1.0 + gamma) ** 2 / (1.0 + gamma * gamma))) + 3


def needs_rescue(possum_abs, value_abs, eps, rel_target: float, abs_floor: float = 0.0):
    """Whether the estimated summation roundoff breaches the accuracy target
    (elementwise on arrays)."""
    est = _ERR_SAFETY * eps * possum_abs
    return est > np.fmax(abs_floor, rel_target * value_abs)


def rescue_dps(cancellation_ratio: float, digits: int = 17) -> int:
    """Working decimal precision needed to sum through a given cancellation."""
    if cancellation_ratio <= 1.0:
        return digits
    return digits + int(math.ceil(math.log10(cancellation_ratio)))


def run_with_rescue(
    pass_fn: Callable,
    size: int,
    rel_target: float,
    abs_floor: float = 0.0,
    max_dps: int = 120,
    what: Callable = str,
    dd_kernels: bool = False,
) -> list:
    """Sum a series at `size` points, rerunning the untrustworthy ones at
    escalating working precision.

    pass_fn(be) sums the series at the points be.points (all when None) in
    be's arithmetic and returns (value, terms, terms_used, trunc,
    possum_abs, ratio): `terms` is the number of terms summed over all
    those points (the work of the pass, which the per-layer tracer in
    bench/tracing.py counts), the rest are arrays over them, and possum_abs
    is sum|t_m| on the final value's scale.  One long-double pass runs over
    all points.  A heavily cancelled sum reports a ratio that is only a
    lower bound (the computed total is then noise at the working epsilon),
    so each point rerun is re-checked and its precision grows at least
    geometrically.  Points that need the same precision rerun together.

    dd_kernels says pass_fn has double-longdouble kernels; an escalated pass
    within _DD_MAX_DPS digits then gets an arithmetic with `dd` set.  Each
    escalation is logged at DEBUG level on the "twdp" logger, under the
    name what(i) of the point.

    Returns a SeriesResult per point, or a CancellationLossError for a point
    that would need more than max_dps digits.
    """
    if not size:
        return []
    value, _, n, trunc, possum_abs, ratio = pass_fn(_ARITH_LD)
    tier = [_ARITH_LD.name] * size
    dps = np.zeros(size, dtype=np.int64)
    out: list = [None] * size
    eps = _ARITH_LD.eps
    todo = np.flatnonzero(needs_rescue(possum_abs, abs(value), eps, rel_target, abs_floor))
    while todo.size:
        for i in todo:
            est = rescue_dps(ratio[i] if math.isfinite(ratio[i]) else 1e30)
            dps[i] = max(est, 2 * dps[i]) if dps[i] else est
            if dps[i] > max_dps:
                out[i] = CancellationLossError(
                    f"{what(i)} needs about {dps[i]} digits "
                    f"(cancellation ratio {ratio[i]:.2e})",
                    float(ratio[i]),
                )
        todo = todo[dps[todo] <= max_dps]
        again = []
        for digits in np.unique(dps[todo]).tolist():
            pts = todo[dps[todo] == digits]
            with mp.workdps(digits):
                be = _arith_mp(dd_kernels, pts)
                for i in pts:
                    _log.debug(
                        "%s: cancellation ratio %.3g in the %s pass; "
                        "rerunning at %d digits in %s arithmetic",
                        what(i), ratio[i], tier[i], digits, "dd" if be.dd else "mp",
                    )
                    tier[i] = be.name
                v, _, n[pts], trunc[pts], p_abs, ratio[pts] = pass_fn(be)
            value[pts] = v
            again.append(pts[needs_rescue(p_abs, abs(v), 10.0 ** (-digits), rel_target, abs_floor)])
        todo = np.concatenate(again) if again else todo
    for i in range(size):
        if out[i] is None:
            out[i] = SeriesResult(float(value[i]), int(n[i]), float(trunc[i]), float(ratio[i]))
    return out


def _grid(values, valid: Callable, what: str) -> np.ndarray:
    """values as a flat float array, checked elementwise by valid."""
    v = np.asarray(values, dtype=float).ravel()
    bad = ~valid(v)
    if bad.any():
        raise InvalidParameterError(f"{what}, got {v[bad][0]}")
    return v


def _raise_lost(results: list) -> list:
    """results, unless a point was lost to cancellation: then its error."""
    for res in results:
        if isinstance(res, CancellationLossError):
            raise res
    return results


# ----------------------------------------------------------------------------
# scaled modified Bessel ladder


def _ive_small_x(x, nu_max: int, be: _Arith) -> list:
    """Power series per order at one point x < 0.5, where the ladder start
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


def _miller_ladder(x, start: list, nu_max: int, be: _Arith) -> list:
    """Rows nu = 0..nu_max of the normalized downward recurrence at x >= 0.5.

    start[i] is the seed order of x[i], in descending order; the points
    already seeded are a prefix of the arrays, and a single point runs on
    scalars, which cost a tenth of one-element arrays.
    """
    zero, seed = be.cast(0.0), be.cast(1e-12)
    ip1 = ik = norm = comp = ()  # no point seeded yet
    ladder = [zero] * (nu_max + 1)
    seeded, size = 0, len(start)
    for k in range(start[0], 0, -1):
        if seeded < size and start[seeded] >= k:
            now = seeded
            while now < size and start[now] >= k:
                now += 1
            if now == 1:
                xa, ip1, ik, norm, comp = x[0], zero, seed, zero, zero
            else:
                xa = x[:now]
                ip1, ik, norm, comp = (np.append(v, [fill] * (now - seeded)) for v, fill in
                                       zip((ip1, ik, norm, comp), (zero, seed, zero, zero)))
            seeded = now
        im1 = ip1 + (2 * k / xa) * ik
        if k - 1 <= nu_max:
            ladder[k - 1] = im1
        # orders k >= 1 enter the normalization twice
        norm, comp = _kahan_add(norm, comp, 2 * ik)
        ip1, ik = ik, im1
    total, _ = _kahan_add(norm, comp, ik)  # the k = 0 value enters once
    for i, v in enumerate(ladder):  # in place: a rescue group's rows hold many mpf values
        ladder[i] = v / total
    return ladder


def _ladder_start(x: float, nu_max: int, be: _Arith):
    """Seed order of the downward recurrence at x, or None below x = 0.5,
    where the power series takes over."""
    if not x >= 0:
        raise InvalidParameterError(f"bessel argument must be >= 0, got {x}")
    if x > 1e7:
        raise InvalidParameterError("bessel ladder limited to x <= 1e7")
    if x < 0.5:
        return None
    return nu_max + int(math.ceil(math.sqrt(2.6 * max(x, 1.0) * -math.log(be.eps)))) + 14


def _ive_ladder(x, nu_max: int, be: _Arith = _ARITH_LD):
    """exp(-x) I_nu(x) for nu = 0..nu_max at x >= 0, a scalar or an array.

    Row nu of the result holds ive_nu at every x; a scalar x gives a list
    of the nu_max + 1 values.  Downward recurrence I_{k-1} = I_{k+1} +
    (2k/x) I_k from a seed far enough above max(nu_max, x) that the
    contamination of the minimal solution is below working precision, then
    normalized via sum_k eps_k ive_k = 1.  Each x has its own seed order.
    """
    if not isinstance(x, np.ndarray):
        # a closed-form MGF calls this once per quadrature node: the grid
        # bookkeeping below would cost more than a short ladder
        xf = float(x)
        if xf == 0.0:
            one = be.cast(1.0)
            return [one] + [one * 0] * nu_max
        start = _ladder_start(xf, nu_max, be)
        if start is not None:
            return _miller_ladder([be.cast(x)], [start], nu_max, be)
        return _ive_small_x(x, nu_max, be)
    xb = be.cast(x)
    starts = [_ladder_start(v, nu_max, be) for v in xb.astype(float).tolist()]
    out = np.full((nu_max + 1, len(xb)), be.cast(0.0), dtype=xb.dtype)
    out[0, xb == 0] = be.cast(1.0)
    small = [i for i, v in enumerate(starts) if v is None and xb[i] > 0]
    if small:
        out[:, small] = np.array([_ive_small_x(xb[i], nu_max, be) for i in small]).T
    big = sorted((i for i, v in enumerate(starts) if v is not None), key=starts.__getitem__,
                 reverse=True)
    if big:
        for nu, row in enumerate(_miller_ladder(xb[big], [starts[i] for i in big], nu_max, be)):
            out[nu, big] = row
    return out


def bessel_i_scaled(nu: int, x: float) -> float:
    """Exponentially scaled modified Bessel function exp(-x) I_nu(x)."""
    if not isinstance(nu, (int, np.integer)) or nu < 0:
        raise InvalidParameterError(f"nu must be a nonnegative integer, got {nu}")
    if x < 0 or not math.isfinite(x):
        raise InvalidParameterError(f"x must be finite and >= 0, got {x}")
    return float(_ive_ladder(x, int(nu))[int(nu)])


# ----------------------------------------------------------------------------
# hypergeometric coefficients


def _legendre_2f1_next(m: int, f, f_prev, b):
    """2F1(-(m+1), -(m+1); 1; b) from its values f at m and f_prev at m - 1.

    2F1(-m, -m; 1; b) = (1-b)^m P_m((1+b)/(1-b)) with P_m the Legendre
    polynomial, giving F_{m+1} = ((2m+1)(1+b) F_m - m (1-b)^2 F_{m-1})/(m+1),
    F_0 = 1, F_{-1} = 0.  All quantities are positive for b in [0, 1]; the
    recurrence tracks the dominant solution, so it is stable upward.
    """
    return ((2 * m + 1) * (1 + b) * f - m * ((1 - b) * (1 - b)) * f_prev) / (m + 1)


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
    zero = _LD(0.0)
    cdf, cdf_c = _kahan_add(zero, zero, g)
    acc = acc_c = wsum = wsum_c = zero
    k = 0
    while True:
        acc, acc_c = _kahan_add(acc, acc_c, w * cdf)
        wsum, wsum_c = _kahan_add(wsum, wsum_c, w)
        if 1.0 - float(wsum) < 1e-19 and k > float(h):
            break
        k += 1
        if k > 100000:
            break
        w = w * h / k
        g = g * x / k
        cdf, cdf_c = _kahan_add(cdf, cdf_c, g)
    return min(1.0, max(0.0, float(acc)))


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
