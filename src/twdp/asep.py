"""Average symbol error probability of coherent M-ary PSK over TWDP fading.

Three routes:

* asep_quadrature: (1/pi) int_0^{pi - pi/M} M(-sin^2(pi/M)/sin^2 th) dth with
  the closed-form MGF, by adaptive bisection in array passes over a whole
  sweep (asep_quadrature_grid).  Treated as ground truth by the tests.
* asep_exact: the explicit series

    P = sin(pi/M) (1+K)/(3 pi g0) sum_m (1/m!) (-K/(1+Gamma^2))^m
        2F1(-m,-m;1;Gamma^2) [ 3 pi/(2 sin^3(pi/M))
                               2F1(3/2, 1+m; 2; -(1+K)/(g0 sin^2(pi/M)))
                               - F1(3/2; 1/2, 1+m; 5/2; sin^2(pi/M), -(1+K)/g0) ]

  It comes from putting the MGF series into the first route's integral,
  so each order's bracket is one angle integral: with g = sin^2(pi/M)/rho,
  rho = (1+K)/g0, and h = sin^2 phi/(sin^2 phi + g),

    (sin(pi/M) rho/3) [ ... ]_m = B_m = int_0^{pi - pi/M} h (1-h)^m dphi,

  and P = (1/pi) sum_m (1/m!) (-K/(1+Gamma^2))^m 2F1(-m,-m;1;Gamma^2) B_m.
  _bracket_family gives B_m on a forward recurrence of positive terms,
  seeded by the closed forms of _angle_seeds, in O(1) operations per order
  and point at working-precision relative accuracy, which the outer
  alternating sum needs because its terms grow far past the result before
  decaying.  As 0 <= 1-h <= 1, B_m bounds every later order.
* asep_asymptotic: the large-g0 closed form
  (1+K)/(2 pi g0) (pi - pi/M + sin(2 pi/M)/2)/sin^2(pi/M) e^{-K} I_0(2 Gamma K/(1+Gamma^2)).

asep_exact_grid sums the sweep into one SeriesGrid (specfun.run_with_rescue),
like the other alternating series.  The first pass runs on long doubles over
the whole SNR sweep.  The points whose cancellation calls for more digits, or
whose series does not converge within specfun._MAX_TERMS terms, rerun
together as the positive mixture

    P = (1/pi) sum_k w_k E_(k+1),    E_n = int_0^{pi - pi/M} h^n dphi,
    h = sin^2 phi / (sin^2 phi + g),  g = sin^2(pi/M) g0/(1+K),

over the model's Poisson mixing weights w_k: given the phases, TWDP is
Rician, a Poisson mixture of Nakagami-(k+1) fading, and (1/pi) E_(k+1) is
M-PSK's error rate over Nakagami-(k+1) fading (Simon & Alouini, Digital
Communication over Fading Channels, 2nd ed., ch. 8).  _nakagami_orders gives
E_n from a second positive recurrence in n, on the same seeds.  A point the
mixture does not converge at is lost: the grid's `lost` holds its error,
callers (the CLI does this) can substitute asep_quadrature_grid there, and
asep_exact raises it.  Every pass runs on long doubles, the seeds
included, and takes the average SNR as rho = (1+K)/g0 (specfun.snr_rho),
finite at every double g0, subnormals included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, QuadratureError
from .mgf import _closed_mgf
from .params import TwdpParams
from .specfun import (
    _PI,
    SeriesGrid,
    SeriesResult,
    _check_gamma0,
    _exp_i0,
    _grid,
    coef_series,
    mixture_series,
    mixture_terms,
    run_with_rescue,
    snr_rho,
)

_LD = np.longdouble

# the quadrature's relative target, its panel budget, and the points of one batch
_QUAD_REL, _PANEL_LIMIT, _QUAD_CHUNK = 1e-10, 200, 256


@dataclass(frozen=True)
class ModulationSpec:
    """PSK order and its cached sin^2(pi/M)."""

    m_order: int
    sin2_pim: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.m_order, (int, np.integer)) or self.m_order < 2:
            raise InvalidParameterError(
                f"m_order must be an integer >= 2, got {self.m_order}"
            )
        s = math.sin(math.pi / self.m_order)
        object.__setattr__(self, "sin2_pim", s * s)


def _angle_seeds(x0: float, g):
    """A_1 = int_0^Phi (1-h) dphi and B_0 = int_0^Phi h dphi at x0 =
    sin^2(pi/M) and long double g > 0 (one value or an array), with X =
    cot(pi/M) = sqrt((1-x0)/x0), 0 at M = 2.  With beta = 1+g, r =
    sqrt(g/beta), 1-r = 1/(beta (1+r)) and w = pi/2 + atan(r X), both are
    sums of positive terms:

        A_1 = r w,   B_0 = (1-r) w + atan((1-r) X/(1 + r X^2)),

    and A_1 + B_0 = pi/2 + atan X = Phi.  Returns (A_1, B_0, X)."""
    x0 = _LD(x0)
    cot = np.sqrt((1 - x0) / x0)
    beta = 1 + g
    r = np.sqrt(g / beta)
    r1 = 1 / (beta * (1 + r))
    w = _PI / 2 + np.arctan(r * cot)
    return r * w, r1 * w + np.arctan(r1 * cot / (1 + r * cot * cot)), cot


def _bracket_family(x0: float, g):
    """B_m = int_0^Phi h (1-h)^m dphi for m = 0, 1, ... at every entry of
    the long double array g, x0 = sin^2(pi/M).

    Returns next_order(): its m-th call gives B_m over all points.  Each
    point's recurrence is its own, so a point runs on unchanged after its
    outer sum has stopped (_sum_series keeps that sum).  With A_n =
    int_0^Phi (1-h)^n dphi and kappa = 1 - h(Phi) = g/(x0+g), integrating
    d/dphi [(1-h)^n sin phi cos phi] over (0, Phi) gives

        B_n = (A_n + 2g (n-1) B_(n-1) + kappa^n sin(pi/M) cos(pi/M)) / (2n beta),
        A_(n+1) = A_n - B_n,

    from the seeds A_1 and B_0 of _angle_seeds.  Every term of B_n is
    positive; an order costs O(1) operations per point.
    """
    a, b, cot = _angle_seeds(x0, g)
    x0 = _LD(x0)
    beta, kappa, sc = 1 + g, g / (x0 + g), x0 * cot
    kn, n = g * 0 + 1, 0

    def next_order():
        nonlocal a, b, kn, n
        out = b
        n += 1
        kn = kn * kappa
        b = (a + 2 * g * (n - 1) * b + kn * sc) / (2 * n * beta)
        a = a - b
        return out

    return next_order


def _asep_pass(p: TwdpParams, mod: ModulationSpec, gamma0, ps):
    """The error rate at the average SNRs gamma0[ps.points] in the tier
    ps.name: coef_series with u = -1 on the factors B_m of _bracket_family,
    or the mixture, at g = sin^2(pi/M)/rho, rho = (1+K)/g0."""
    g = _LD(mod.sin2_pim) / snr_rho(p.k, gamma0[ps.points])
    if ps.name == "mixture":
        return _asep_mixture(p, mod, g)
    next_order = _bracket_family(mod.sin2_pim, g)

    def bracket(m):
        # 0 <= 1-h <= 1, so B_m bounds every later B_j
        b = next_order()
        return b, b

    return coef_series(p, -1, bracket, len(g), 1 / _PI)


def _asep_mixture(p: TwdpParams, mod: ModulationSpec, g):
    """The mixture error rate (1/pi) sum_k w_k E_(k+1) at g = sin^2(pi/M)
    g0/(1+K) per point; E_(n+1) <= E_n/(1+g), since h <= 1/(1+g)."""
    @functools.cache
    def table():  # built on the first factor call, which only a pass that sums makes
        return np.array([_nakagami_orders(v, mod, mixture_terms(p)) for v in g])

    return mixture_series(p, len(g), lambda k: table()[:, k], lambda k: 1 / (1 + g), 1 / _PI)


def _tails(terms, rho, total):
    """sum_{j>=i} t_j at every i of the positive terms t of a sequence whose
    terms past them fall by rho or less each and which sums to `total`: the
    suffix sums of the terms plus the rest past them, total less their sum,
    clipped into [0, t_last rho/(1-rho)]."""
    suffix = np.cumsum(terms[::-1])[::-1]
    bound = terms[-1] * rho / (1 - rho) if rho < 1 else np.inf
    return suffix + min(max(total - suffix[0], _LD(0)), bound)


def _nakagami_orders(g, mod: ModulationSpec, n: int):
    """E_1..E_n, E_m = int_0^{pi-pi/M} h^m dphi with h = sin^2 phi /
    (sin^2 phi + g), at one long double g > 0.

    With beta = 1+g and kappa = g/(sin^2(pi/M) + g), P_m = E_m - E_(m+1) =
    int_0^Phi h^m (1-h) dphi satisfies, by integrating d/dphi [h^m cot phi],

        P_m = ((2m-1) P_(m-1) + g X (1-kappa)^m) / (2m beta),  P_0 = A_1,

    X and A_1 from _angle_seeds, whose solution is the positive product-sum
    P_m = L_m (A_1 + sum_{i<=m} g X C_i/(2i beta)), L_m = prod_{i<=m}
    (2i-1)/(2i beta), C_i = prod_{l<=i} 2l beta (1-kappa)/(2l-1); as beta
    (1-kappa) < 1 at M > 2 (X = 0 at M = 2), C_i stays below sqrt(pi (i+1)).
    E_m = sum_{j>=m} P_j, whose terms fall by 1/beta or faster.  Its tail
    (_tails) sums the terms over a window past the orders needed, long
    enough for them to fall by e^-46, but at most 8 times those orders:
    where that cuts it short, the terms fall so slowly that taking the rest
    as the total less the window's sum loses under 6 bits.
    """
    beta, rate = 1 + g, float(np.log1p(g))
    n_p = n + 1 + math.ceil(min(46 / rate if rate > 0 else math.inf, 8 * n + 72))
    a1, _, cot = _angle_seeds(mod.sin2_pim, g)
    s = _LD(mod.sin2_pim)
    i = np.arange(1, n_p, dtype=_LD)
    lm = np.cumprod(np.append(_LD(1), (i - _LD(0.5)) / (beta * i)))
    c = np.cumprod(beta * s / (s + g) * i / (i - _LD(0.5)))
    p_m = lm * (a1 + np.cumsum(np.append(_LD(0), g * cot * c / (2 * beta * i))))
    return _tails(p_m, 1 / beta, _PI - _PI / mod.m_order)[1:n + 1]


def asep_exact(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> SeriesResult:
    """Exact M-PSK symbol error probability from the explicit series.

    Raises SeriesDivergenceError where neither the series nor its mixture
    converges within its term budget.
    """
    grid = asep_exact_grid(p, mod, [gamma0])
    if grid.lost:
        raise grid.lost[0]
    return grid[0]


def asep_exact_grid(p: TwdpParams, mod: ModulationSpec, gamma0s) -> SeriesGrid:
    """Exact M-PSK symbol error probability along a sweep of average SNRs.

    Its `lost` holds the SeriesDivergenceError of each point where neither
    the series nor its mixture converges within its term budget (callers
    such as the CLI substitute asep_quadrature_grid there).
    """
    g0 = _grid(gamma0s, lambda v: (v > 0) & np.isfinite(v), "gamma0 must be positive and finite")

    def what(i):
        return f"asep series at K={p.k}, Gamma={p.gamma}, gamma0={float(g0[i])}"

    return run_with_rescue(lambda ps: _asep_pass(p, mod, g0, ps), np.full(len(g0), np.nan), what)


def asep_asymptotic(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """High-SNR closed-form M-PSK symbol error probability.

    It grows like 1/gamma0, so at a subnormal gamma0 it overflows double:
    that raises InvalidParameterError.
    """
    _check_gamma0(gamma0)
    M = mod.m_order
    k = _LD(p.k)
    g = _LD(p.gamma)
    angle = _LD(math.pi - math.pi / M + 0.5 * math.sin(2.0 * math.pi / M))
    xarg = 2 * g * k / (1 + g * g)  # <= K, so the joint exponent stays <= 0
    scale = snr_rho(p.k, gamma0) / (2 * _PI * _LD(mod.sin2_pim))
    value = _exp_i0(scale * angle, -k, xarg)
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"the asymptotic error rate at gamma0={gamma0} overflows double")
    return float(value)


@functools.cache  # numpy.polynomial loads on the first quadrature, not at import
def _gauss_parts():
    """Gauss-Legendre nodes as fractions of a panel's width, and weights: on it, then its halves."""
    x, w = np.polynomial.legendre.leggauss(10)
    return np.r_[(1 + x) / 2, (1 + x) / 4, (3 + x) / 4], np.r_[w / 2, w / 4, w / 4]


def asep_quadrature(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """M-PSK symbol error probability by adaptive quadrature of the MGF integral."""
    return float(asep_quadrature_grid(p, mod, [gamma0])[0])


def asep_quadrature_grid(p: TwdpParams, mod: ModulationSpec, gamma0s) -> np.ndarray:
    """asep_quadrature along a sweep of SNRs, each value bit for bit its one-point
    call, by adaptive bisection of all their panels.  Breakpoints w 8^j lead into
    the layer of width w = sqrt(sin^2(pi/M) g0/(1+K)) at th = 0 where the integrand
    climbs at low SNR.  A pair of halves is accepted when |left + right - panel| <=
    tol = _QUAD_REL width/Phi times its point's estimate and its parent pair was within
    1e6 tol, what a halving gains on a smooth panel: past a rough one it may pass by chance.
    QuadratureError names a point needing over _PANEL_LIMIT panels past its breakpoints."""
    g0 = _grid(gamma0s, lambda v: (v > 0) & np.isfinite(v), "gamma0 must be positive and finite")
    if not 0 < len(g0) <= _QUAD_CHUNK:  # batches bound the node arrays
        return np.concatenate([np.empty(0)] + [asep_quadrature_grid(p, mod, g0[i:i + _QUAD_CHUNK])
                                               for i in range(0, len(g0), _QUAD_CHUNK)])
    c, upper, n = mod.sin2_pim, math.pi - math.pi / mod.m_order, len(g0)
    pt, lo, hi = [], [], []
    for i, gamma0 in enumerate(g0):
        at, w = [0.0], math.sqrt(c) * math.sqrt(float(gamma0) / (1.0 + p.k))
        while 0.0 < w < (0.01 if len(at) == 1 else 0.5) * upper:  # a thin layer only
            at.append(w)
            w *= 8.0
        pt += [i] * len(at)
        lo += at
        hi += at[1:] + [upper]
    pt, lo, rho = np.array(pt, dtype=np.intp), np.array(lo), snr_rho(p.k, g0)
    width = np.array(hi) - lo

    def rule(frac, weight):  # a column per part of each panel; 0 where sin th = 0
        st = _LD(np.sin(lo[:, None] + width[:, None] * frac))
        f = np.where(st > 0, _closed_mgf(p, rho[pt, None], -c / np.where(st > 0, st * st, 1)), 0)
        # summed elementwise, so that a panel's value never depends on the batch
        return (f * weight).reshape(len(lo), -1, 10).sum(axis=2) * width[:, None]

    frac, weight = _gauss_parts()
    first, passed = rule(frac, weight), np.zeros(len(pt), bool)
    val, halves, done, added = first[:, 0], first[:, 1:], np.zeros(n), np.zeros(n, int)
    while True:
        both = halves[:, 0] + halves[:, 1]
        gap = np.abs(both - val)
        tol = _QUAD_REL / upper * (done + np.bincount(pt, both, minlength=n))[pt] * width
        fine = gap <= tol
        ok = fine & passed
        done += np.bincount(pt[ok], both[ok], minlength=n)
        added += np.bincount(pt[~fine], minlength=n)
        if (added >= _PANEL_LIMIT).any():
            i = np.argmax(added >= _PANEL_LIMIT)
            raise QuadratureError(
                f"asep quadrature at K={p.k}, Gamma={p.gamma}, gamma0={float(g0[i])} needs more"
                f" than {_PANEL_LIMIT} panels past its breakpoints", gap[pt == i].sum() / math.pi)
        keep = np.flatnonzero(~ok)
        if not len(keep):
            return done / math.pi
        val, twice = halves[keep].ravel(), np.repeat(keep, 2)
        pt, lo, width, passed = pt[twice], lo[twice], width[twice] / 2, (gap <= 1e6 * tol)[twice]
        lo[1::2] += width[1::2]
        halves = rule(frac[10:], weight[10:])
