"""Stable special-function kernel and the series engine used by the
distribution and error-rate code.

* Modified Bessel functions are always exponentially scaled, ive(nu, x) =
  exp(-x) I_nu(x), produced by a downward Miller recurrence normalized with
  ive_0(x) + 2 sum_k ive_k(x) = 1.  Only ratios enter, so the ladder cannot
  overflow, and callers assemble exponents symbolically and exponentiate once.
* 2F1(-m, -m; 1; b), the coefficient shared by the cdf, MGF and error-rate
  series, runs on the stable upward Legendre recurrence in the order m.

Every series in the package is summed by one engine, _sum_series, over an
array of points: each point keeps its own compensated sum and stops on its
own under the one fixed stopping rule (_REL_TOL, _CONSEC_BELOW and
_MAX_TERMS below), which no caller sets.  A point that runs out of terms
gets a SeriesDivergenceError of its own; the other points are unaffected.
The envelope/SNR series alternate and can cancel by many orders of magnitude
for strong specular power, so a pass runs on 80-bit long doubles first and
reports the cancellation ratio sum|t_m| / |sum t_m| of every point.
run_with_rescue reruns only the points whose ratio, times the pass's
rounding bound, would breach the relative accuracy target (needs_rescue),
all of them in one pass of double-longdouble arithmetic (_DD, hi/lo pairs
of long doubles built from error-free transformations, section at the end;
about 34 digits once its rounding is bounded, see _DD_EPS).  Only the
points that pass cannot vouch for rerun in mpmath (numpy object arrays of
mpf values), at digits rounded up to a multiple of 8, all points that need
the same precision in one pass.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import mpmath as mp
import numpy as np
import scipy  # scipy.special loads on first use, not at import

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
# the accuracy every rescued series value is held to, and the most digits a
# rescue may take before the point is given up as lost to cancellation
_REL_TARGET = 1e-11
_MAX_DPS = 120
# the stopping rule of every series: a sum stops after _CONSEC_BELOW
# consecutive terms with |t_m| <= _REL_TOL |partial sum|, each no larger than
# the one before (the series alternate, so one small term is no safe stop,
# and a small term on the rising side of a hump is none either); a point
# that has not stopped after _MAX_TERMS terms did not converge
_REL_TOL = 1e-12
_CONSEC_BELOW = 3
_MAX_TERMS = 500

_log = logging.getLogger("twdp")


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    trunc_estimate is |last included term| / |value|; cancellation_ratio is
    sum|t_m| / |sum t_m| and equals 1 for series with single-signed terms.
    tier names the arithmetic of the pass that gave the value: "longdouble",
    "dd" or "mpNN" (NN digits), or "none" where no series was summed;
    passes counts the passes that summed the series at this point (0 for
    such a shortcut, 1 for the long-double pass alone, one more per rerun).
    """

    value: float
    terms_used: int
    trunc_estimate: float
    cancellation_ratio: float = 1.0
    tier: str = "longdouble"
    passes: int = 1


@dataclass(frozen=True)
class _Arith:
    """The arithmetic of one summation pass and the points it runs on.

    Functions and `cast` act elementwise on arrays: long-double arrays,
    _DD arrays, or object arrays of mpf values at the current mpmath
    precision.  `eps` bounds the relative rounding error of a term.
    `points` indexes the points of the grid the pass runs on (None: all of
    them).
    """

    name: str
    cast: Callable
    exp: Callable
    expm1: Callable
    sqrt: Callable
    eps: float
    pi: object
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


def _to_mpf(x):
    """x as an mpf, exactly for long doubles too (mpmath rejects them)."""
    if isinstance(x, np.longdouble):
        man, exp = np.frexp(x)
        return mp.mpf((int(np.ldexp(man, 64)), int(exp) - 64))
    return mp.mpf(x)


def _arith_mp(points=None) -> _Arith:
    """mpmath context bound to the *current* working precision."""
    return _Arith(
        name=f"mp{mp.mp.dps}",
        cast=np.frompyfunc(_to_mpf, 1, 1),
        exp=np.frompyfunc(mp.exp, 1, 1),
        expm1=np.frompyfunc(mp.expm1, 1, 1),
        sqrt=np.frompyfunc(mp.sqrt, 1, 1),
        eps=float(mp.mpf(10) ** (-mp.mp.dps)),
        pi=+mp.pi,
        points=points,
    )


def _kahan_add(total, comp, x):
    """One compensated (Kahan) step: (total, compensation) after adding x.

    Elementwise on arrays; works for float, long double and mpf alike.
    """
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _sum_series(term: Callable, size: int, min_terms: int = 0, n_limit: int | None = None):
    """Sum term(0) + term(1) + ... at every one of `size` points.

    term(m, live) returns the m-th terms of all points as one array (long
    double, _DD or mpf objects); it is called for m = 0, 1, 2, ... in order, so
    it may advance recurrences.  Only the terms at the points marked in the
    boolean array `live` are used, so a costly term may skip the others.
    Every point keeps a Kahan sum of its terms and of their magnitudes, and
    stops on its own under the stopping rule above, and its sums stop with
    it, so its result does not depend on the other points of the grid.

    `min_terms` disarms the stopping rule for the first terms.  The
    alternating sums here have envelopes that dip right after the leading
    term and only then climb through a hump near m = K (1+Gamma)^2 /
    (1+Gamma^2); without the guard the consecutive-small-term rule can fire
    inside that dip and drop the entire hump.  Terms still rising never
    count toward a stop, which covers the humps the guard misses (the cdf's
    moves out with x: at K=8, Gamma=0, x=58.6 it peaks at m=14).

    Returns arrays (sum, terms_used, |last term|, sum |t_m|, converged).
    """
    limit = _MAX_TERMS if n_limit is None else min(_MAX_TERMS, n_limit)
    guard = min(min_terms, limit)
    n = below = np.zeros(size, dtype=np.int64)
    done = np.zeros(size, dtype=bool)
    for m in range(limit):
        t = term(m, ~done)
        t_abs = abs(t)
        if m == 0:
            s = comp = pos = pos_comp = t * 0
        new = (*_kahan_add(s, comp, t), *_kahan_add(pos, pos_comp, t_abs), t_abs)
        falling = m == 0 or t_abs <= last
        if done.any():
            new = [np.where(done, old, v) for old, v in zip((s, comp, pos, pos_comp, last), new)]
        s, comp, pos, pos_comp, last = new
        small = m + 1 >= guard and (t_abs <= _REL_TOL * abs(s)) & falling
        below = np.where(small, below + 1, 0)
        n = np.where(done, n, m + 1)
        done = done | (below >= _CONSEC_BELOW)
        if done.all():
            break
    return s, n, last, pos, done


def _pass_result(pref, s, n, last, pos, converged):
    """A pass's return value from its sums: (value, terms, terms_used,
    trunc, ratio, converged), see run_with_rescue."""
    s_abs = abs(s)
    nonzero = s_abs > 0
    safe = np.where(nonzero, s_abs, 1)
    trunc = np.where(nonzero, (last / safe).astype(float), math.inf)
    ratio = np.where(nonzero, (pos / safe).astype(float), math.inf)
    return (pref * s).astype(float), int(n.sum()), n, trunc, ratio, converged


def term_hump_guard(k: float, gamma: float) -> int:
    """Stopping-rule guard for the alternating envelope/SNR/error-rate series.

    Their term magnitudes peak near m = K (1+Gamma)^2 / (1+Gamma^2); the
    stopping rule must not engage before that hump has been crossed.
    """
    return int(math.ceil(k * (1.0 + gamma) ** 2 / (1.0 + gamma * gamma))) + 3


def needs_rescue(ratio, eps):
    """Whether a pass's roundoff, _ERR_SAFETY eps sum|t_m| for per-term
    error eps, breaches _REL_TARGET |sum t_m|, elementwise on arrays of
    cancellation ratios sum|t_m| / |sum t_m|.  The positive prefactor scales
    both sides alike: a value however small is held to the same target."""
    return _ERR_SAFETY * eps * ratio > _REL_TARGET


def rescue_dps(cancellation_ratio: float) -> int:
    """Working decimal precision needed to sum through a given cancellation,
    rounded up to a multiple of 8 so that nearby points share a pass."""
    digits = 17
    if cancellation_ratio > 1.0:
        digits += int(math.ceil(math.log10(cancellation_ratio)))
    return -(-digits // 8) * 8


def run_with_rescue(pass_fn: Callable, size: int, what: Callable = str) -> list:
    """Sum a series at `size` points, rerunning the untrustworthy ones in
    more precise arithmetic.

    pass_fn(be) sums the series at the points be.points (all when None) in
    be's arithmetic and returns (value, terms, terms_used, trunc, ratio,
    converged): `terms` is the number of terms summed over all those points
    (the work of the pass, which the per-layer tracer in bench/tracing.py
    counts), the rest are arrays over them.  Every pass is judged by
    needs_rescue alone, from its cancellation ratios and its arithmetic's
    eps: one long-double pass runs over all points, then one
    double-longdouble pass over every point that fails the check (where long
    double is the x87 format).  The points left rerun in mpmath with the
    digits their own ratio calls for, so a point's precision and tier never
    depend on the other points.  A heavily cancelled sum reports a ratio
    that is only a lower bound (the computed total is then noise at the
    working epsilon), so each point rerun is re-checked and its precision
    grows at least geometrically.  Points that need the same precision rerun
    together.  A point that has not converged after _MAX_TERMS terms in
    some pass is not rerun: more digits do not shorten its series.
    Each rerun is logged at DEBUG level on the "twdp" logger, under the name
    what(i) of the point.

    Returns a SeriesResult per point, with the tier of its last pass and
    the number of passes it took, or in its place a SeriesDivergenceError
    for a point that did not converge, or a CancellationLossError for a
    point that would need more than _MAX_DPS digits.
    """
    if not size:
        return []
    out: list = [None] * size

    def to_rerun(pts, ok, eps):
        """The points of pts that converged in a pass of rounding bound eps
        but need more precision; those that did not converge get their error."""
        for i in pts[~ok]:
            out[i] = SeriesDivergenceError(
                f"{what(i)} did not converge in {n[i]} terms", int(n[i]))
        return pts[ok & needs_rescue(ratio[pts], eps)]

    value, _, n, trunc, ratio, ok = pass_fn(_ARITH_LD)
    tier = [_ARITH_LD.name] * size
    passes = np.ones(size, dtype=np.int64)
    todo = to_rerun(np.arange(size), ok, _ARITH_LD.eps)
    if todo.size and _ARITH_DD is not None:
        for i in todo:
            _log.debug("%s: cancellation ratio %.3g in the %s pass; rerunning in dd arithmetic",
                       what(i), ratio[i], tier[i])
            tier[i] = _ARITH_DD.name
        passes[todo] += 1
        value[todo], _, n[todo], trunc[todo], ratio[todo], ok = pass_fn(
            replace(_ARITH_DD, points=todo))
        todo = to_rerun(todo, ok, _ARITH_DD.eps)
    dps = np.zeros(size, dtype=np.int64)
    while todo.size:
        for i in todo:
            est = rescue_dps(ratio[i] if math.isfinite(ratio[i]) else 1e30)
            dps[i] = max(est, 2 * dps[i]) if dps[i] else est
            if dps[i] > _MAX_DPS:
                out[i] = CancellationLossError(
                    f"{what(i)} needs about {dps[i]} digits "
                    f"(cancellation ratio {ratio[i]:.2e})",
                    float(ratio[i]),
                )
        todo = todo[dps[todo] <= _MAX_DPS]
        again = []
        for digits in np.unique(dps[todo]).tolist():
            pts = todo[dps[todo] == digits]
            with mp.workdps(digits):
                be = _arith_mp(pts)
                for i in pts:
                    _log.debug(
                        "%s: cancellation ratio %.3g in the %s pass; "
                        "rerunning at %d digits in mp arithmetic",
                        what(i), ratio[i], tier[i], digits,
                    )
                    tier[i] = be.name
                passes[pts] += 1
                value[pts], _, n[pts], trunc[pts], ratio[pts], ok = pass_fn(be)
            again.append(to_rerun(pts, ok, be.eps))
        todo = np.concatenate(again) if again else todo
    for i in range(size):
        if out[i] is None:
            out[i] = SeriesResult(float(value[i]), int(n[i]), float(trunc[i]), float(ratio[i]),
                                  tier[i], int(passes[i]))
    return out


def _grid(values, valid: Callable, what: str) -> np.ndarray:
    """values as a flat float array, checked elementwise by valid."""
    v = np.asarray(values, dtype=float).ravel()
    bad = ~valid(v)
    if bad.any():
        raise InvalidParameterError(f"{what}, got {v[bad][0]}")
    return v


def _raise_lost(results: list) -> list:
    """results, unless a point did not converge or was lost to cancellation:
    then its error."""
    for res in results:
        if isinstance(res, (SeriesDivergenceError, CancellationLossError)):
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
    already seeded are a prefix of the arrays.
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
            xa, fresh = x[:now], x[seeded:now] * 0
            ip1, ik, norm, comp = (np.append(v, fresh + fill) for v, fill in
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
    """exp(-x) I_nu(x) for nu = 0..nu_max at every entry of the array x >= 0.

    Row nu of the result holds ive_nu at every x.  Downward recurrence
    I_{k-1} = I_{k+1} + (2k/x) I_k from a seed far enough above
    max(nu_max, x) that the contamination of the minimal solution is below
    working precision, then normalized via sum_k eps_k ive_k = 1.  Each x
    has its own seed order.
    """
    xb = be.cast(x)
    starts = [_ladder_start(v, nu_max, be) for v in xb.astype(float).tolist()]
    out = be.cast(np.zeros((nu_max + 1, len(xb))))
    out[0, xb == 0] = be.cast(1.0)
    for i, v in enumerate(starts):
        if v is None and xb[i] > 0:
            out[:, i] = _ive_small_x(xb[i], nu_max, be)
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
    return float(_ive_ladder(np.array([x]), int(nu))[int(nu), 0])


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
    scaled Bessel (scipy.special.i0e), so intermediate overflow cannot occur
    before the result itself leaves the double range.
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
    value = np.exp(expo) * scipy.special.i0e(float(xarg))
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

    Returns (t, 1-t, w) as arrays in be's arithmetic, with 1-t carried
    separately so integrands such as (1-t)^(-1/2) keep full precision near
    t = 1.  Spacing h = 2^-level; nodes stop once the weight cannot
    influence the target precision even against an inverse-square-root
    endpoint factor.  The dd table is the 40-digit mpmath one rounded to
    hi/lo pairs, so each entry holds about 38 digits; the mpmath one holds
    mpf values at the current precision.
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
    elif be.name == "dd":
        with mp.workdps(40):
            out = tuple(_dd_from_mpf(col) for col in tanh_sinh_rule(level, _arith_mp()))
    else:
        with mp.extraprec(20):
            h = mp.mpf(1) / (1 << level)
            smax = mp.mpf(2.3) * mp.mp.dps * 2 + 20
            umax = mp.asinh(2 * smax / mp.pi)
            kmax = int(umax / h) + 1
            t, omt, w = [], [], []
            for k in range(kmax + 1):
                u = k * h
                e2s = mp.exp(-2 * (mp.pi / 2 * mp.sinh(u)))
                mag = e2s / (1 + e2s)
                t.append(1 - mag)
                omt.append(mag)
                w.append(h * mp.pi / 4 * mp.cosh(u) * 4 * e2s / (1 + e2s) ** 2)
        # sinh is odd and cosh even: the node at -k is the node at k with t
        # and 1 - t swapped
        out = tuple(np.array(left[:0:-1] + right, dtype=object)
                    for left, right in ((omt, t), (t, omt), (w, w)))
    _TS_CACHE[key] = out
    return out


# ----------------------------------------------------------------------------
# double-longdouble arithmetic
#
# A dd value is a pair (hi, lo) of long doubles whose unevaluated sum carries
# about 128 bits (38 digits) on x87 80-bit long doubles, u = 2^-64, with
# |lo| <= u |hi|.  The error-free transformations (Dekker, Numer. Math. 18,
# 1971; Hida, Li & Bailey, ARITH-15, 2001) need only round-to-nearest; long
# doubles have no fused multiply-add, so products go through Veltkamp's
# split.  Each dd operation states its relative error, to first order in u.

_DD_SPLITTER = _LD(2**32 + 1)

# _DD_EPS bounds the relative rounding error of one term of a dd pass, which
# is what needs_rescue rechecks a dd pass with.  Relative errors add along a
# chain of operations.  Each recurrence in the order m (the bracket family's
# powers of g, the coefficient a^m/m!, the Legendre and Laguerre
# recurrences) takes one dd product (8u^2) and one quotient (13u^2) or sum
# (3u^2) per order on factors already within their bound, so a term after m
# orders is within 22 m u^2 per chain: 11,000 u^2 over the _MAX_TERMS = 500
# orders a sum may take.  A Miller ladder step I_{k-1} = I_{k+1} + (2k/x) I_k
# adds positive values and costs a quotient, a product and a sum (24u^2), so
# a ladder of at most 1,000 steps (order 500 plus the seed offset up to
# x ~ 300) adds 24,000 u^2.  Together 35,000 u^2 = 1.0e-34: about 34 digits.
_DD_EPS = (22 * _MAX_TERMS + 24 * 1000) * 2.0**-128


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


def _dd_add(a, b):
    """a + b within 3u^2 / (1 - 4u) relative, cancellation included
    (AccurateDWPlusDW; Joldes, Muller & Popescu, ACM TOMS 44(4), 2017)."""
    s, e = _two_sum(a.hi, b.hi)
    t, f = _two_sum(a.lo, b.lo)
    s, e = _fast_two_sum(s, e + t)
    return _DD(*_fast_two_sum(s, e + f))


def _dd_mul(a, b):
    """a b within 8u^2 relative: with a.hi b.hi = p + e exactly, the
    product drops a.lo b.lo (u^2) and rounds a.hi b.lo and a.lo b.hi (u^2
    each), their sum (2u^2) and e plus that sum (3u^2)."""
    p, e = _two_prod(a.hi, b.hi, b.hi_split())
    return _DD(*_fast_two_sum(p, e + (a.hi * b.lo + a.lo * b.hi)))


def _dd_div(a, b):
    """a / b within 13u^2 relative: q = fl(a.hi / b.hi), and the remainder
    a - q b (a.hi - p is exact) takes four roundings of 1, 2, 1 and 3 u^2
    |a.hi|; it is divided by b.hi instead of b (3u^2) and rounded (3u^2)."""
    q = a.hi / b.hi
    p, e = _two_prod(q, b.hi)
    r = (((a.hi - p) - e) + a.lo) - q * b.lo
    return _DD(*_fast_two_sum(q, r / b.hi))


def _dd_sqrt(a):
    """sqrt(a) for a > 0: the long-double root and one Newton correction."""
    s = np.sqrt(a.hi)
    p, e = _two_prod(s, s)
    return _DD(*_fast_two_sum(s, (((a.hi - p) - e) + a.lo) / (2 * s)))


def _dd(x):
    """x as a _DD; ints below 2^64, floats and long doubles convert exactly,
    and a list of _DD values becomes one array."""
    if isinstance(x, _DD):
        return x
    if isinstance(x, list) and x and isinstance(x[0], _DD):
        return _DD(np.array([v.hi for v in x]), np.array([v.lo for v in x]))
    hi = np.asarray(x, dtype=_LD)
    return _DD(hi, np.zeros_like(hi))


class _DD:
    """An array of dd values: long-double arrays (or scalars) hi and lo of
    one shape.

    Arithmetic with ints, floats, long doubles and other _DD arrays runs the
    dd operations above; negation, abs and comparisons are exact.  It
    indexes like its parts, sums over its last axis, and np.where and
    np.append accept it (the only numpy functions the series passes apply
    to their values), so the passes run on it unchanged.  The Veltkamp split
    of hi is kept once a product has needed it: a factor reused at every
    order (the bracket family's g) splits once.
    """

    __slots__ = ("hi", "lo", "_hi_split")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators
    __hash__ = None

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo
        self._hi_split = None

    def hi_split(self):
        """_split(hi), computed on first use and kept until an entry is set
        (through this _DD: writes through another view of hi go unseen)."""
        if self._hi_split is None:
            self._hi_split = _split(self.hi)
        return self._hi_split

    @property
    def ndim(self):
        return np.ndim(self.hi)

    def __add__(self, other):
        return _dd_add(self, _dd(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _dd_add(self, -_dd(other))

    def __rsub__(self, other):
        return _dd_add(_dd(other), -self)

    def __mul__(self, other):
        return _dd_mul(self, _dd(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _dd_div(self, _dd(other))

    def __rtruediv__(self, other):
        return _dd_div(_dd(other), self)

    def __pow__(self, n: int):
        out = self
        for _ in range(n - 1):  # small integer powers only
            out = out * self
        return out

    def __neg__(self):
        return _DD(-self.hi, -self.lo)

    def __abs__(self):
        return _DD(np.abs(self.hi), np.where(self.hi < 0, -self.lo, self.lo))

    def __le__(self, other):
        o = _dd(other)
        return (self.hi < o.hi) | ((self.hi == o.hi) & (self.lo <= o.lo))

    def __gt__(self, other):
        return ~(self <= other)

    def __eq__(self, other):
        o = _dd(other)
        return (self.hi == o.hi) & (self.lo == o.lo)

    def __getitem__(self, idx):
        return _DD(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value):
        v = _dd(value)
        self.hi[idx], self.lo[idx] = v.hi, v.lo
        self._hi_split = None

    def sum(self, axis):
        """Sums over the last axis (axis=-1, the only one), see _dd_row_sums."""
        if axis != -1:
            raise ValueError("a _DD sums over its last axis only")
        return _dd_row_sums(self)

    def __len__(self):
        return len(self.hi)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def astype(self, dtype):
        """The values rounded to dtype (float), lo deciding ties of hi."""
        d = self.hi.astype(dtype)
        return d + ((self.hi - d) + self.lo).astype(dtype)

    def __float__(self):
        return float(self.astype(float))

    def __array_function__(self, func, types, args, kwargs):
        if func is np.where:
            cond, a, b = args[0], _dd(args[1]), _dd(args[2])
            return _DD(np.where(cond, a.hi, b.hi), np.where(cond, a.lo, b.lo))
        if func is np.append:
            a, b = (_dd(v) for v in args)
            return _DD(np.append(a.hi, b.hi), np.append(a.lo, b.lo))
        return NotImplemented


def _extract(x, sigma):
    """(q, x - q): q is x rounded to the grid of ulp(sigma), sigma a power of
    two; both parts are exact, and |x - q| <= 2^-64 sigma."""
    q = (sigma + x) - sigma
    return q, x - q


def _dd_row_sums(a):
    """Row sums (over the last axis) of a _DD with hi >= 0, within 2^-119.

    The exact-extraction parts are within 2^-120 of each row sum (Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008).  A power of two sigma
    above twice the row sum puts every hi on a grid whose partial sums stay
    below sigma, so they add exactly.  The remainders are below 2^-64 sigma
    each, so a grid 2^bits >= n + 2 times above that sums them exactly too,
    leaving parts below 2^-100 of the row sum.  Those and the lo parts,
    below 2^-64 of theirs, are summed with rounding, and joining the parts
    into one dd value rounds once more (u^2).
    """
    hi, lo = a.hi, a.lo
    _, e = np.frexp(hi.sum(axis=-1, keepdims=True))
    sigma = np.ldexp(_LD(1), e + 1)
    q, r = _extract(hi, sigma)
    qr, rr = _extract(r, np.ldexp(sigma, (hi.shape[-1] + 2).bit_length() - 64))
    s, e = _two_sum(q.sum(axis=-1), qr.sum(axis=-1))
    return _DD(*_fast_two_sum(s, e + (rr.sum(axis=-1) + lo.sum(axis=-1))))


def _dd_from_mpf(values):
    """The _DD nearest to a sequence of mpf values."""
    def to_ld(x):  # exact for x with at most 64 significant bits
        man, exp = x.man_exp  # unsigned mantissa
        return np.ldexp(_LD(-man if x < 0 else man), exp)

    hi, lo = [], []
    with mp.workprec(64):
        for v in values:
            h = +v
            hi.append(to_ld(h))
            lo.append(to_ld(v - h))
    return _DD(np.array(hi, dtype=_LD), np.array(lo, dtype=_LD))


def _dd_map(fn):
    """An mpmath function applied to each value of a _DD at 40 digits and
    rounded back to dd; passes call it once per point, not per term."""
    def apply(x):
        with mp.workdps(40):
            out = _dd_from_mpf([fn(_to_mpf(h) + _to_mpf(l))
                                for h, l in zip(np.ravel(x.hi), np.ravel(x.lo))])
        shape = np.shape(x.hi)
        return _DD(out.hi.reshape(shape), out.lo.reshape(shape))
    return apply


def _arith_dd():
    """The dd arithmetic, or None where long double is not the x87 format
    whose 64-bit significand the bounds above assume."""
    if np.finfo(np.longdouble).nmant != 63:
        return None
    with mp.workdps(40):
        pi = _dd_from_mpf([+mp.pi])[0]
    return _Arith(name="dd", cast=_dd, exp=_dd_map(mp.exp), expm1=_dd_map(mp.expm1),
                  sqrt=_dd_sqrt, eps=_DD_EPS, pi=pi)


_ARITH_DD = _arith_dd()
