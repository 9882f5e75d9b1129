"""Stable special-function kernel and the series engine used by the
distribution and error-rate code.

* Modified Bessel functions are always exponentially scaled, ive(nu, x) =
  exp(-x) I_nu(x), produced at every x in [0, 1e7] by one downward Miller
  loop over the ratios I_k/I_(k-1), each in [0, 1), normalized with
  ive_0(x) + 2 sum_k ive_k(x) = 1.  Only ratios enter, so the ladder cannot
  overflow, and callers assemble exponents symbolically and exponentiate once.
* coef_series sums the cdf, MGF and error-rate series, which share one
  coefficient (K u/(1+Gamma^2))^m/m! 2F1(-m, -m; 1; Gamma^2) and differ in
  u and a factor per order; 2F1 runs on the upward Legendre recurrence.
* mixture_series sums the same four quantities as positive series over the
  Poisson mixture weights w_k of the model (mixture_weights, below).
* exp(lin) I_0(x), the closed-form MGF's and the high-SNR error rate's
  factor, takes one exponentiation against scipy's scaled i0e (_exp_i0).

Every series in the package is summed by one engine, _sum_series, over an
array of points on 80-bit long doubles: each point keeps its own sum and
stops on its own under one fixed stopping rule, which no caller sets: once a
proven, geometric bound on the rest of its terms is below 2^-63 of its sum.
The paper's envelope/SNR series alternate and can cancel by many orders of
magnitude for strong specular power, so their pass sums with compensated
(Kahan) adds and reports the cancellation ratio sum|t_m| / |sum t_m| of
every point.  run_with_rescue fills a grid's SeriesGrid, one array per
result field, by masked assignment: it sends the points whose ratio, times
the pass's rounding bound, would breach the relative accuracy target
(needs_rescue), and those that did not converge within the pass's term
budget (_MAX_TERMS; 49 for the pdf), to one mixture pass, whose terms are
all positive and so cannot cancel.

The mixture.  Given the phase difference theta of its two rays, TWDP is
Rician with specular power K(theta) = K (1 + Gamma^2 + 2 Gamma cos theta) /
(1 + Gamma^2) (Durgin, Rappaport & de Wolf, IEEE Trans. Commun. 50(6),
2002), and a Rician x = r^2/(2 sigma^2) is a Poisson(K(theta)) mixture of
Gamma(k+1, 1) laws (Johnson, Kotz & Balakrishnan, Continuous Univariate
Distributions, vol. 2, ch. 29).  Averaged over theta, the mixing weights
w_k = E[exp(-K(theta)) K(theta)^k / k!] are positive and sum to 1, and they
are an Euler resummation of the paper's coefficient c_m = E[K(theta)^m]/m!:
w_k = sum_j (-1)^j C(k+j, k) c_(k+j).  With K(theta) = a + z cos^2(theta/2),
a = K (1-Gamma)^2/(1+Gamma^2) and z = 4 K Gamma/(1+Gamma^2), w is the
Poisson(a) law convolved with the weights v of Poisson(z c), c arcsine on
[0, 1], which satisfy

    z (j - 1/2)/j v_(j-1) - (j + z) v_j + (j + 1) v_(j+1) = 0,

run backward (Miller's algorithm; Gautschi, SIAM Review 9(1), 1967) and
normalized by sum v_j = 1.  Every weight falls at least as fast as the
Poisson(K') law beyond any order, K' = K (1+Gamma)^2/(1+Gamma^2) the
largest K(theta): w_(k+1) <= K'/(k+1) w_k, and so does the paper's
coefficient: |c_(m+1)| <= K'/(m+1) |c_m|.  That bounds the remainder of
every mixture sum by its last term times a geometric factor, and only that
bound says whether a point converged.  A mixture pass takes J + 10 sqrt(J) +
40 terms, J the order of its largest term, but at most _MIX_MAX_TERMS
(mixture_series), and sums none at K' above about 4,300.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy  # scipy.special loads on first use, not at import

from .errors import InvalidParameterError, SeriesDivergenceError

_LD = np.longdouble
_LD_EPS = float(np.finfo(np.longdouble).eps)
# the long double nearest pi
_PI = _LD("3.141592653589793238462643383279502884")
# rounding-error inflation factor for the per-term error model
_ERR_SAFETY = 4.0
# the accuracy every series value is held to
_REL_TARGET = 1e-11
# a sum stops once a proven bound on the rest of its terms is below
# _STOP_TOL |partial sum|; one that has not after _MAX_TERMS did not converge
_STOP_TOL = _LD_EPS
_MAX_TERMS = 500
# the most terms a mixture pass takes: the domain edge of the package
_MIX_MAX_TERMS = 5000
# the largest argument of the scaled Bessel ladder
_IVE_MAX_X = 1e7

_log = logging.getLogger("twdp")


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    trunc_estimate is a proven bound on the omitted remainder relative to
    the value, in every tier, and at most 2^-63 where the series converged;
    cancellation_ratio is sum|t_m| / |sum t_m| and equals 1 for series with
    single-signed terms, the mixture's among them.  passes counts the passes
    that summed the series at this point: 0 for a shortcut, 1 for the
    long-double pass (the paper's series) alone, 2 after the mixture.
    """

    value: float
    terms_used: int
    trunc_estimate: float
    cancellation_ratio: float = 1.0
    passes: int = 1

    @property
    def tier(self) -> str:
        """The pass that gave the value: "longdouble", "mixture", or "none"."""
        return ("none", "longdouble", "mixture")[self.passes]


@dataclass(frozen=True, eq=False)
class SeriesGrid:
    """A series along a grid: one array per SeriesResult field, and `lost`, the
    SeriesDivergenceError of each point it could not be summed at (value NaN),
    by index.  grid[i] and iteration give each point's SeriesResult or error."""

    value: np.ndarray
    terms_used: np.ndarray
    trunc_estimate: np.ndarray
    cancellation_ratio: np.ndarray
    passes: np.ndarray
    lost: dict

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i):
        i = range(len(self))[i]
        return self.lost.get(i) or SeriesResult(
            float(self.value[i]), int(self.terms_used[i]), float(self.trunc_estimate[i]),
            float(self.cancellation_ratio[i]), int(self.passes[i]))


class Pass(NamedTuple):
    """One summation pass of a grid: its tier and the grid points it sums."""

    name: str
    points: np.ndarray


def _kahan_add(total, comp, x):
    """One compensated (Kahan) step: (total, compensation) after adding x."""
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _sum_series(term: Callable, size: int, rest: Callable, limit: int = _MAX_TERMS):
    """Sum term(0) + term(1) + ... at every one of `size` points.

    term(m) returns the m-th terms of all points as one long-double array,
    for m = 0, 1, 2, ... in order (so it may advance recurrences) until the
    last point stops; rest(m, a), called right after it returned t, a =
    |t|, bounds |sum of the later terms| at every point (inf where none is
    known).  Every point keeps compensated sums of its terms and of their
    magnitudes and stops on its own, once that bound is below _STOP_TOL
    times its partial sum (never at a zero sum, which a sum of underflowed
    terms may be), with its sums as they are then, so its result does not
    depend on the other points.  A point that has not stopped after `limit`
    terms, or whose sum is not finite, did not converge.

    Returns arrays (sum, terms_used, remainder bound, sum |t_m|, converged).
    """
    n = np.zeros(size, dtype=np.int64)
    live, converged = np.ones(size, dtype=bool), np.zeros(size, dtype=bool)
    for m in range(limit):
        t = term(m)
        t_abs = abs(t)
        if m == 0:
            s = comp = t * 0
            pos = pos_comp = t_abs * 0
            kept = [t * 0, t_abs * 0, t_abs * 0]
        s, comp = _kahan_add(s, comp, t)
        pos, pos_comp = _kahan_add(pos, pos_comp, t_abs)
        bound = rest(m, t_abs)
        done = live & (bound < abs(s) * _STOP_TOL)
        stop = (live if m + 1 == limit else done).nonzero()[0]
        if stop.size:
            converged[stop] = done[stop]
            for k, v in zip(kept, (s, bound, pos)):
                k[stop] = v[stop]
            n[stop] = m + 1
            live[stop] = False
            if not live.any():
                break
    s, bound, pos = kept
    return s, n, bound, pos, converged & np.isfinite(s)


def _geometric_rest(t, rho):
    """t rho/(1 - rho) where rho < 1, else inf, with no arithmetic on an inf
    (30 times slower in long double): the rest after t of terms falling by rho."""
    return np.divide(t * rho, 1 - rho, out=np.full_like(t, np.inf), where=rho < 1)


def _pass_result(pref, s, n, bound, pos, converged):
    """A pass's return value from its sums: (value, terms, terms_used,
    trunc, ratio, converged), see run_with_rescue; a quantity past the
    double range, or inf/inf (a point that did not converge), comes back
    without a warning."""
    s_abs = abs(s)
    nonzero = s_abs > 0
    safe = np.where(nonzero, s_abs, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        trunc = np.where(nonzero, (bound / safe).astype(float), math.inf)
        ratio = np.where(nonzero, (pos / safe).astype(float), math.inf)
        return (pref * s).astype(float), int(n.sum()), n, trunc, ratio, converged


def k_top(k: float, gamma: float) -> float:
    """K' = K (1+Gamma)^2 / (1+Gamma^2), the largest specular power K(theta)."""
    return k * (1.0 + gamma) ** 2 / (1.0 + gamma * gamma)


def needs_rescue(ratio):
    """Whether the long-double pass's roundoff, _ERR_SAFETY eps sum|t_m|,
    breaches _REL_TARGET |sum t_m|, elementwise on arrays of cancellation
    ratios sum|t_m| / |sum t_m|.  The positive prefactor scales both sides
    alike: a value however small is held to the same target."""
    return _ERR_SAFETY * _LD_EPS * ratio > _REL_TARGET


def run_with_rescue(pass_fn: Callable, value, what: Callable = str) -> SeriesGrid:
    """The SeriesGrid of a series summed at the NaN entries of the array
    `value`; its other entries, shortcut points, keep their values, with 0
    terms and 0 passes.

    pass_fn(Pass(tier, points)) sums the series at the grid points `points`
    in the tier's form, "longdouble" (the paper's series) or "mixture"
    (mixture_series), and returns (value, terms, terms_used, trunc, ratio,
    converged): `terms` is the number of terms summed over those points (the
    work of the pass, which the per-layer tracer in bench/tracing.py counts),
    the rest are arrays over them.  The points whose long-double pass fails
    needs_rescue, or did not converge within its term budget, rerun in one
    mixture pass, each logged at DEBUG level on the "twdp" logger under the
    name what(i) of grid point i; one the mixture does not converge at is lost.
    """
    value = np.array(value, dtype=float)
    terms = np.zeros(len(value), dtype=np.int64)
    trunc, ratio, passes = np.zeros(len(value)), np.ones(len(value)), terms.copy()
    todo = np.flatnonzero(np.isnan(value))
    for count, tier in enumerate(("longdouble", "mixture"), start=1):
        if not todo.size:
            break
        # the mixture pass overwrites what the long-double pass left at its points
        v, _, n, t, r, ok = pass_fn(Pass(tier, todo))
        value[todo] = np.where(ok, v, np.nan)
        terms[todo], trunc[todo], ratio[todo], passes[todo] = n, t, r, count
        rerun = ~ok | needs_rescue(r)
        if tier == "longdouble" and _log.isEnabledFor(logging.DEBUG):
            for j in np.flatnonzero(rerun):
                how = (f"cancellation ratio {r[j]:.3g}" if ok[j]
                       else f"no convergence in {n[j]} terms")
                _log.debug("%s: %s in the longdouble pass; rerunning in the mixture",
                           what(todo[j]), how)
        todo = todo[rerun]
    return SeriesGrid(value, terms, trunc, ratio, passes, {
        int(i): SeriesDivergenceError(f"{what(i)} did not converge in {terms[i]} terms",
                                      int(terms[i])) for i in np.flatnonzero(np.isnan(value))})


def _grid(values, valid: Callable, what: str) -> np.ndarray:
    """values as a flat float array, checked elementwise by valid."""
    v = np.asarray(values, dtype=float).ravel()
    bad = ~valid(v)
    if bad.any():
        raise InvalidParameterError(f"{what}, got {v[bad][0]}")
    return v


def _check_gamma0(gamma0: float) -> None:
    """Raise unless gamma0 is a valid average SNR (linear): positive and finite."""
    if not (gamma0 > 0 and math.isfinite(gamma0)):
        raise InvalidParameterError(f"gamma0 must be positive and finite, got {gamma0}")


def snr_rho(k: float, gamma0):
    """rho = (1+K)/gamma0 in long double, the one form in which the SNR-domain
    passes take gamma0 (a float or an array): finite (below 4e631) at every input."""
    return (1 + _LD(k)) / _LD(gamma0)


# ----------------------------------------------------------------------------
# scaled modified Bessel ladder


def _ive_ladder(x, nu_max: int):
    """exp(-x) I_nu(x) for nu = 0..nu_max at every entry of the array x in
    [0, _IVE_MAX_X].

    Row nu of the result holds ive_nu at every x.  Miller's algorithm in
    ratio form (Gautschi, SIAM Review 9(1), 1967): the ratios q_k =
    I_k/I_(k-1) = x/(2k + x q_(k+1)), all in [0, 1), and their tail sums T_k
    = q_k (1 + T_(k+1)) = sum_(j>=k) I_j/I_(k-1) run down from q = T = 0 at
    each x's own seed order nu_max + ceil(sqrt(2.6 max(x, 1) ln(1/eps))) +
    14, far enough above max(nu_max, x) that the start's error is below
    working precision.  Then ive_0 = 1/(1 + 2 T_1), from sum_k eps_k ive_k =
    1, and ive_nu = ive_0 q_1 ... q_nu.  A point below its seed order keeps
    q = T = 0 exactly, so its rows do not depend on the other points.
    """
    xb = np.asarray(x, dtype=_LD)
    xf = _grid(xb, lambda v: (v >= 0) & (v <= _IVE_MAX_X),
               f"bessel argument must be in [0, {_IVE_MAX_X:g}]")
    seed = np.ceil(np.sqrt(2.6 * np.maximum(xf, 1.0) * -math.log(_LD_EPS)))
    start = nu_max + seed.astype(np.int64) + 14
    rows = np.ones((nu_max + 1, len(xb)), dtype=_LD)
    q = tail = xb * 0
    for k in range(int(start.max()), 0, -1):
        xk = np.where(start >= k, xb, 0)
        q = xk / (2 * k + xk * q)
        tail = q * (1 + tail)
        if k <= nu_max:
            rows[k] = q
    rows[0] = 1 / (1 + 2 * tail)
    return np.cumprod(rows, axis=0)


# ----------------------------------------------------------------------------
# the TWDP coefficient series


def coef_series(p, u, factor: Callable, size: int, pref):
    """A pass (see _pass_result) of pref sum_m factor(m) c_m F_m at `size`
    points: c_m = (K u/(1+Gamma^2))^m / m!, u = -1 (cdf, error rate) or the
    MGF's SNR ratio per point, and F_m = 2F1(-m, -m; 1; b) = (1-b)^m
    P_m((1+b)/(1-b)), b = Gamma^2, on the Legendre recurrence F_{m+1} =
    ((2m+1)(1+b) F_m - m (1-b)^2 F_{m-1})/(m+1), F_0 = 1, F_{-1} = 0, which
    tracks the dominant solution and so is stable upward.  factor(m) is
    called for m = 0, 1, ... in order (it may advance recurrences) and
    returns the order-m factors and a bound B_m on |factor(j)| at every j >
    m.  As c_m F_m = u^m E[K(theta)^m]/m! and 0 <= K(theta) <= K' (module
    docstring), the terms after order m sum to at most B_m |c_m F_m|
    rho/(1-rho) once rho = K'|u|/(m+1) < 1."""
    g = _LD(p.gamma)
    b = g * g
    q = _LD(p.k) / (1 + b) * u
    bp, bm2 = 1 + b, (1 - b) * (1 - b)
    f_prev, f, c = _LD(0.0), _LD(1.0), u * 0 + 1
    kt_u = _LD(k_top(p.k, p.gamma)) * abs(u)
    bound = None

    def term(m):
        nonlocal f_prev, f, c, bound
        if m:
            f_prev, f = f, ((2 * m - 1) * bp * f - (m - 1) * bm2 * f_prev) / m
            c = c * q / m
        h, bound = factor(m)
        return h * c * f

    def rest(m, a):
        return _geometric_rest(bound * abs(c * f), kt_u / (m + 1))

    # at K past about 1e12, c_m overflows long double within the term budget
    # and the sum goes inf - inf: such a point does not converge
    with np.errstate(over="ignore", invalid="ignore"):
        return _pass_result(pref, *_sum_series(term, size, rest))


# ----------------------------------------------------------------------------
# the positive mixture


def mixture_weights(p, n: int) -> np.ndarray:
    """The mixing weights w_0..w_(n-1) (module docstring) in long double.

    The Poisson(a) law comes from its ratio a/j, the weights v from their
    ratios v_j/v_(j-1), run down from an order far enough past n that the
    start's error has died out by n (the ratios of v fall like z/j there),
    and both by a running product.  Long double keeps weights far below
    double's range, which the pdf's upper tail reaches.
    """
    g = _LD(p.gamma)
    g2 = 1 + g * g
    a = _LD(p.k) * (1 - g) * (1 - g) / g2
    z = 4 * _LD(p.k) * g / g2
    poisson = np.cumprod(np.append(np.exp(-a), a / np.arange(1, n, dtype=_LD)))
    if not z > 0:
        return poisson
    top = n + int(20 * math.sqrt(n)) + 20
    ratio, r = np.ones(top, dtype=_LD), _LD(0)
    for j in range(top - 1, 0, -1):
        r = z * (j - _LD(0.5)) / (j * (j + z - (j + 1) * r))
        ratio[j] = r
    v = np.cumprod(ratio)
    v = v[:n] / v.sum()
    return np.convolve(poisson, v)[:n] if a > 0 else v


def mixture_terms(p, j_peak: float = 0.0) -> int:
    """The terms a mixture pass takes: J + 10 sqrt(J) + 40, J = max(K',
    j_peak) the order near which its largest term lies."""
    j = max(k_top(p.k, p.gamma), j_peak)
    return int(math.ceil(j + 10 * math.sqrt(j) + 40))


def running_product(first, step: Callable) -> Callable:
    """factor(j) = first step(0) step(1) ... step(j-1), for a factor called
    with j = 0, 1, ... in order."""
    value = first

    def factor(j):
        nonlocal value
        if j:
            value = value * step(j - 1)
        return value

    return factor


def mixture_series(p, size: int, factor: Callable, factor_ratio: Callable, pref,
                   j_peak: float = 0.0, cumulative: bool = False):
    """A pass (see _pass_result) of pref sum_m c_m factor(m) at `size`
    points, c_m = w_m, or its running sum W_m = w_0 + ... + w_m when
    cumulative (both at most 1).

    factor(m), called for m = 0, 1, ... in order, gives the order-m factors
    of all points, all >= 0, and factor_ratio(m) bounds factor(i+1) /
    factor(i) for every i >= m.  As w_(i+1) <= K'/(i+1) w_i, the terms after
    order m sum to at most t rho/(1-rho), with t the order-m term and rho =
    K'/(m+1) factor_ratio(m), or, when cumulative (W <= 1), t the order-m
    factor and rho = factor_ratio(m).  j_peak, one value or one per point,
    is the order near which a point's largest term lies, and the pass takes
    mixture_terms(p, j_peak) weights for the largest, at most _MIX_MAX_TERMS;
    a point the bound has not stopped within them did not converge.
    """
    # the one refusal, of the whole pass: Miller's start is accurate only past mixture_terms(p),
    # and on wrong weights a small-x pdf point (tiny factor ratio) could stop with a wrong value
    if mixture_terms(p) > _MIX_MAX_TERMS:
        none = np.zeros(size, dtype=_LD)
        return _pass_result(1, none, np.full(size, _MIX_MAX_TERMS), none + np.inf, none, none > 0)
    limit = min(mixture_terms(p, float(np.max(j_peak))), _MIX_MAX_TERMS)
    c = mixture_weights(p, limit)
    if cumulative:
        c = np.cumsum(c)
    kt = k_top(p.k, p.gamma)
    f = None

    def term(m):
        nonlocal f
        f = factor(m)
        return c[m] * f

    def rest(m, t):
        if cumulative:
            t, rho = f, factor_ratio(m)
        else:
            rho = kt / (m + 1) * factor_ratio(m)
        return _geometric_rest(t, rho)

    return _pass_result(pref, *_sum_series(term, size, rest, limit))


# ----------------------------------------------------------------------------
# exp * I0 products


def _exp_i0(pref, lin, x):
    """pref exp(lin) I_0(x) in double for x >= 0, from long doubles (arrays too).

    Evaluated as (pref exp(lin + x)) ive_0(x) with scipy.special.i0e, one
    exponentiation, so I_0 itself never overflows.
    """
    return np.float64((pref * np.exp(lin + x)) * scipy.special.i0e(np.float64(x)))
