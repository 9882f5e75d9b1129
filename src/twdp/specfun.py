"""Stable special-function kernel and the series engine used by the
distribution and error-rate code.

* Modified Bessel functions are always exponentially scaled, ive(nu, x) =
  exp(-x) I_nu(x), produced by a downward Miller recurrence normalized with
  ive_0(x) + 2 sum_k ive_k(x) = 1.  Only ratios enter, so the ladder cannot
  overflow, and callers assemble exponents symbolically and exponentiate once.
* 2F1(-m, -m; 1; b), the coefficient shared by the cdf, MGF and error-rate
  series, runs on the stable upward Legendre recurrence in the order m.
* exp(lin) I_0(x), the closed-form MGF's and the high-SNR error rate's
  factor, takes one exponentiation against scipy's scaled i0e (_exp_i0).

Every series in the package is summed by one engine, _sum_series, over an
array of points: each point keeps its own sum and stops on its own under the
one fixed stopping rule (_REL_TOL, _CONSEC_BELOW and _MAX_TERMS below), which
no caller sets.  A point that runs out of terms gets a SeriesDivergenceError
of its own; the other points are unaffected.  The envelope/SNR series
alternate and can cancel by many orders of magnitude for strong specular
power, so a pass runs on 80-bit long doubles first, with compensated
(Kahan) sums, and reports the cancellation ratio sum|t_m| / |sum t_m| of
every point.  run_with_rescue reruns only the points whose ratio, times the
pass's rounding bound, would breach the relative accuracy target
(needs_rescue), all of them in one pass of double-longdouble arithmetic
(_DD, hi/lo pairs of long doubles built from error-free transformations,
section at the end; about 34 digits once its rounding is bounded, see
_DD_EPS).  Only the points that pass cannot vouch for rerun in mpmath
(numpy object arrays of mpf values), at digits rounded up to a multiple of
8, all points that need the same precision in one pass.  The dd and mpmath
passes sum plainly: their bounds count the summation's rounding, which
costs them no extra digit, so they skip the compensation's three extra
operations per add.  On a shared 2-core x86-64 machine a dd pass costs
0.15-0.35 ms per point of a pdf, cdf or MGF series at K = 14-20, Gamma = 1
(a pdf's Bessel ladder most of its pass), an mpmath pass 2-6 ms per point.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy  # scipy.special loads on first use, not at import

from .errors import (
    CancellationLossError,
    InvalidParameterError,
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


def _kahan_add(total, comp, x):
    """One compensated (Kahan) step: (total, compensation) after adding x."""
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _plain_add(total, comp, x):
    """One uncompensated step, in _kahan_add's form; comp stays as it is."""
    return total + x, comp


def _itself(x):
    return x


@dataclass(frozen=True)
class _Arith:
    """The arithmetic of one summation pass and the points it runs on.

    Functions and `cast` act elementwise on arrays: long-double arrays,
    _DD arrays, or object arrays of mpf values at the current mpmath
    precision.  `from_mpf` rounds a list of mpf values, computed at higher
    precision, to this arithmetic.  `eps` bounds the relative rounding error
    of a term, summation included.  `add` is one step of a running sum
    (_kahan_add where eps leaves no room for the summation's own rounding,
    _plain_add where eps counts it).  `lead` gives a value to the precision
    that the stopping rule and sum|t_m| need: the value itself, or a dd
    value's long-double leading part.  `points` indexes the points of the
    grid the pass runs on (None: all of them).
    """

    name: str
    cast: Callable
    exp: Callable
    expm1: Callable
    sqrt: Callable
    from_mpf: Callable
    eps: float
    pi: object
    add: Callable = _plain_add
    lead: Callable = _itself
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
    from_mpf=lambda values: _dd_from_mpf(values).hi,
    eps=_LD_EPS,
    pi=_LD(np.pi),
    add=_kahan_add,
)


def _to_mpf(x):
    """x as an mpf, exactly for long doubles too (mpmath rejects them)."""
    import mpmath as mp
    if isinstance(x, np.longdouble):
        man, exp = np.frexp(x)
        return mp.mpf((int(np.ldexp(man, 64)), int(exp) - 64))
    return mp.mpf(x)


def _arith_mp(points=None) -> _Arith:
    """mpmath context bound to the *current* working precision.

    Its sums run plainly: each add rounds within 10^-dps of a partial sum,
    at most sum|t_m|, so a sum of _MAX_TERMS terms adds _MAX_TERMS 10^-dps
    to the term's own 10^-dps in eps.  The digits rescue_dps picks still
    pass needs_rescue with that eps at a ratio 500 times the one they were
    picked for.
    """
    import mpmath as mp
    cast = np.frompyfunc(_to_mpf, 1, 1)
    return _Arith(
        name=f"mp{mp.mp.dps}",
        cast=cast,
        exp=np.frompyfunc(mp.exp, 1, 1),
        expm1=np.frompyfunc(mp.expm1, 1, 1),
        sqrt=np.frompyfunc(mp.sqrt, 1, 1),
        from_mpf=cast,
        eps=(1 + _MAX_TERMS) * float(mp.mpf(10) ** (-mp.mp.dps)),
        pi=+mp.pi,
        points=points,
    )


def _sum_series(term: Callable, size: int, be: _Arith, min_terms: int = 0,
                n_limit: int | None = None):
    """Sum term(0) + term(1) + ... at every one of `size` points in be's
    arithmetic.

    term(m, live) returns the m-th terms of all points as one array (long
    double, _DD or mpf objects); it is called for m = 0, 1, 2, ... in order, so
    it may advance recurrences.  Only the terms at the points marked in the
    boolean array `live` are used, so a costly term may skip the others.
    Every point keeps a sum of its terms (be.add) and of their magnitudes
    (be.lead), and stops on its own under the stopping rule above; its sums
    are kept as they are at the term where it stops, so its result does not
    depend on the other points of the grid.

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
    n, below = np.zeros((2, size), dtype=np.int64)
    live, converged = np.ones(size, dtype=bool), np.zeros(size, dtype=bool)
    tol = be.lead(be.cast(_REL_TOL))  # cast once, not per point of an mpf pass
    for m in range(limit):
        t = term(m, live)
        t_abs = abs(be.lead(t))
        if m == 0:
            s = comp = t * 0
            pos = pos_comp = t_abs * 0
            kept = [t * 0, t_abs * 0, t_abs * 0]
        s, comp = be.add(s, comp, t)
        pos, pos_comp = be.add(pos, pos_comp, t_abs)
        falling = m == 0 or t_abs <= last
        last = t_abs
        # array operand first: an mpf meeting an array tries (slowly) to convert it
        small = m + 1 >= guard and (t_abs <= abs(be.lead(s)) * tol) & falling
        below = np.where(small, below + 1, 0)
        done = live & (below >= _CONSEC_BELOW)
        converged |= done
        stop = np.flatnonzero(live if m + 1 == limit else done)
        if stop.size:
            for k, v in zip(kept, (s, last, pos)):
                k[stop] = v[stop]
            n[stop] = m + 1
            live[stop] = False
            if not live.any():
                break
    s, last, pos = kept
    return s, n, last, pos, converged


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
    dd = _arith_dd() if todo.size else None
    if dd is not None:
        for i in todo:
            _log.debug("%s: cancellation ratio %.3g in the %s pass; rerunning in dd arithmetic",
                       what(i), ratio[i], tier[i])
            tier[i] = dd.name
        passes[todo] += 1
        value[todo], _, n[todo], trunc[todo], ratio[todo], ok = pass_fn(replace(dd, points=todo))
        todo = to_rerun(todo, ok, dd.eps)
    dps = np.zeros(size, dtype=np.int64)
    while todo.size:
        import mpmath as mp
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


def _check_gamma0(gamma0: float) -> float:
    """gamma0, if it is a valid average SNR (linear): positive and finite."""
    if not (gamma0 > 0 and math.isfinite(gamma0)):
        raise InvalidParameterError(f"gamma0 must be positive and finite, got {gamma0}")
    return gamma0


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
    ip1 = ik = norm = comp = ()  # no point seeded yet
    ladder = [None] * (nu_max + 1)
    seeded, size = 0, len(start)
    for k in range(start[0], 0, -1):
        if seeded < size and start[seeded] >= k:
            now = seeded
            while now < size and start[now] >= k:
                now += 1
            xa, zero = x[:now], x[seeded:now] * 0
            ip1, ik, norm, comp = (np.append(v, fill) for v, fill in
                                   zip((ip1, ik, norm, comp), (zero, zero + 1e-12, zero, zero)))
            seeded = now
        im1 = ip1 + (2 * k / xa) * ik
        if k - 1 <= nu_max:
            ladder[k - 1] = im1
        # orders k >= 1 enter the normalization twice
        norm, comp = be.add(norm, comp, 2 * ik)
        ip1, ik = ik, im1
    total, _ = be.add(norm, comp, ik)  # the k = 0 value enters once
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


# ----------------------------------------------------------------------------
# hypergeometric coefficients


def _legendre_coefs(b):
    """The point-independent factors (1 + b, (1 - b)^2) of the recurrence of
    _legendre_2f1_next, computed once per pass."""
    return 1 + b, (1 - b) * (1 - b)


def _legendre_2f1_next(m: int, f, f_prev, coefs):
    """2F1(-(m+1), -(m+1); 1; b) from its values f at m and f_prev at m - 1,
    with coefs = _legendre_coefs(b).

    2F1(-m, -m; 1; b) = (1-b)^m P_m((1+b)/(1-b)) with P_m the Legendre
    polynomial, giving F_{m+1} = ((2m+1)(1+b) F_m - m (1-b)^2 F_{m-1})/(m+1),
    F_0 = 1, F_{-1} = 0.  All quantities are positive for b in [0, 1]; the
    recurrence tracks the dominant solution, so it is stable upward.
    """
    bp, bm2 = coefs
    return ((2 * m + 1) * bp * f - m * bm2 * f_prev) / (m + 1)


# ----------------------------------------------------------------------------
# exp * I0 products


def _exp_i0(pref, lin, x) -> float:
    """pref exp(lin) I_0(x) for x >= 0, from long doubles pref, lin and x.

    Evaluated as (pref exp(lin + x)) ive_0(x) with scipy.special.i0e, one
    exponentiation, so I_0 itself never overflows.
    """
    return float((pref * np.exp(lin + x)) * scipy.special.i0e(float(x)))


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

# _DD_EPS bounds the relative rounding error of one term of a dd pass, its
# share of the summation included, which is what needs_rescue rechecks a dd
# pass with.  Relative errors add along a chain of operations.  Each product
# recurrence in the order m (the coefficient a^m/m!, the Legendre and
# Laguerre recurrences) takes one dd product (8u^2) and one quotient (13u^2)
# or sum (3u^2) per order on factors already within their bound, so a term
# after m orders is within 22 m u^2 per chain: 11,000 u^2 over the
# _MAX_TERMS = 500 orders a sum may take.  A Miller ladder step I_{k-1} =
# I_{k+1} + (2k/x) I_k adds positive values and costs a quotient, a product
# and a sum (24u^2), so a ladder of at most 1,000 steps (order 500 plus the
# seed offset up to x ~ 300) adds 24,000 u^2.  The sums run uncompensated:
# each add is within 3u^2 of a partial sum, and a partial sum is at most
# sum|t_m| (the outer sum) or the total (the ladder's positive
# normalization), so 500 outer and 1,000 ladder adds cost 4,500 u^2 more.
# Together 39,500 u^2 = 1.2e-34: about 34 digits.  An error-rate term takes
# two chains and a bracket factor from the three-term recurrence of
# asep._bracket_family, which is stable, so its rounding does not grow by a
# bound per order: against the same recurrence at 60 digits it measured at
# most 75 u^2 over 500 orders (M = 2 to 64, y = 1e-8 to 1e4).  Even a
# hundred times that, with the outer sum's 1,500 u^2, keeps the term within
# 31,000 u^2, inside the bound.
_DD_EPS = (22 * _MAX_TERMS + 24 * 1000 + 3 * (_MAX_TERMS + 1000)) * 2.0**-128


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


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e == a b exactly (Dekker); an int b
    of at most 32 bits is its own upper half."""
    p = a * b
    ah, al = _split(a)
    if type(b) is int and -2**32 < b < 2**32:
        return p, (ah * b - p) + al * b
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(a, b):
    """a + b within 3u^2 / (1 - 4u) relative, cancellation included
    (AccurateDWPlusDW; Joldes, Muller & Popescu, ACM TOMS 44(4), 2017)."""
    s, e = _two_sum(a.hi, b.hi)
    t, f = _two_sum(a.lo, b.lo)
    s, e = _fast_two_sum(s, e + t)
    return _DD(*_fast_two_sum(s, e + f))


def _dd_add_fp(a, b):
    """a + b for a long double (int, float) b within 2u^2 / (1 - 2u)
    relative, cancellation included (DWPlusFP; Joldes, Muller & Popescu)."""
    s, e = _two_sum(a.hi, b)
    return _DD(*_fast_two_sum(s, a.lo + e))


def _dd_mul(a, b):
    """a b within 8u^2 relative: with a.hi b.hi = p + e exactly, the
    product drops a.lo b.lo (u^2) and rounds a.hi b.lo and a.lo b.hi (u^2
    each), their sum (2u^2) and e plus that sum (3u^2)."""
    p, e = _two_prod(a.hi, b.hi)
    return _DD(*_fast_two_sum(p, e + (a.hi * b.lo + a.lo * b.hi)))


def _dd_mul_fp(a, b):
    """a b for a long double (int, float) b within 3u^2 / (1 - 2u) relative:
    with a.hi b = p + e exactly, a.lo b rounds (u^2) and so does e plus it
    (2u^2) (DWTimesFP2; Joldes, Muller & Popescu).  An int power of two
    (or 0) scales both parts exactly."""
    if type(b) is int and not b & (b - 1):
        return _DD(a.hi * b, a.lo * b)
    p, e = _two_prod(a.hi, b)
    return _DD(*_fast_two_sum(p, e + a.lo * b))


def _dd_div(a, b):
    """a / b within 13u^2 relative: q = fl(a.hi / b.hi), and the remainder
    a - q b (a.hi - p is exact) takes four roundings of 1, 2, 1 and 3 u^2
    |a.hi|; it is divided by b.hi instead of b (3u^2) and rounded (3u^2)."""
    q = a.hi / b.hi
    p, e = _two_prod(q, b.hi)
    r = (((a.hi - p) - e) + a.lo) - q * b.lo
    return _DD(*_fast_two_sum(q, r / b.hi))


def _dd_div_fp(a, b):
    """a / b for a long double (int, float) b within 4u^2 / (1 - 2u)
    relative: with q = fl(a.hi / b), the remainder a.hi - q b is exact, and
    adding a.lo to it (2u^2) and dividing the sum by b (2u^2) round."""
    q = a.hi / b
    p, e = _two_prod(q, b)
    return _DD(*_fast_two_sum(q, (((a.hi - p) - e) + a.lo) / b))


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

    Arithmetic with other _DD arrays runs the dd operations above, and with
    ints, floats and long doubles (scalars or arrays) their cheaper mixed
    forms; negation, abs and comparisons are exact.  It indexes like its
    parts, and np.where and np.append accept it (the only numpy functions
    the series passes apply to their values), so the passes run on it
    unchanged.
    """

    __slots__ = ("hi", "lo")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators
    __hash__ = None

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    def __add__(self, other):
        return _dd_add(self, other) if isinstance(other, _DD) else _dd_add_fp(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return _dd_add_fp(-self, other)

    def __mul__(self, other):
        return _dd_mul(self, other) if isinstance(other, _DD) else _dd_mul_fp(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _dd_div(self, other) if isinstance(other, _DD) else _dd_div_fp(self, other)

    def __rtruediv__(self, other):
        return _dd_div(_DD(other, 0), self)

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


def _dd_from_mpf(values):
    """The _DD nearest to a sequence of mpf values."""
    import mpmath as mp

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
        import mpmath as mp
        with mp.workdps(40):
            out = _dd_from_mpf([fn(_to_mpf(h) + _to_mpf(l))
                                for h, l in zip(np.ravel(x.hi), np.ravel(x.lo))])
        shape = np.shape(x.hi)
        return _DD(out.hi.reshape(shape), out.lo.reshape(shape))
    return apply


@functools.cache
def _arith_dd():
    """The dd arithmetic, or None where long double is not the x87 format
    whose 64-bit significand the bounds above assume.  Built on first use,
    so that mpmath, which gives its pi, loads only when a pass needs it."""
    if np.finfo(np.longdouble).nmant != 63:
        return None
    import mpmath as mp
    with mp.workdps(40):
        pi = _dd_from_mpf([+mp.pi])[0]
    return _Arith(name="dd", cast=_dd, exp=_dd_map(mp.exp), expm1=_dd_map(mp.expm1),
                  sqrt=_dd_sqrt, from_mpf=_dd_from_mpf, eps=_DD_EPS, pi=pi,
                  lead=operator.attrgetter("hi"))
