"""Average symbol error probability of coherent M-ary PSK over TWDP fading.

Three routes:

* asep_quadrature: (1/pi) int_0^{pi - pi/M} M(-sin^2(pi/M)/sin^2 th) dth with
  the closed-form MGF.  Unambiguous, treated as ground truth by the tests.
* asep_exact: the explicit series

    P = sin(pi/M) (1+K)/(3 pi g0) sum_m (1/m!) (-K/(1+Gamma^2))^m
        2F1(-m,-m;1;Gamma^2) [ 3 pi/(2 sin^3(pi/M))
                               2F1(3/2, 1+m; 2; -(1+K)/(g0 sin^2(pi/M)))
                               - F1(3/2; 1/2, 1+m; 5/2; sin^2(pi/M), -(1+K)/g0) ]

  Both bracket factors are Euler integrals over t in (0, 1) whose integrands
  differ across m only through a power (1 - y t)^{-(1+m)}, so a single
  tanh-sinh node set evaluates the whole family: per order m the node vector
  is multiplied by the cached base once more.  That keeps every factor at
  working-precision relative accuracy, which the outer alternating sum needs
  because its terms grow far past the result before decaying.  The 2F1
  argument uses sin^2(pi/M): substituting th = pi/2 into the indefinite
  integral fixes the power, and the quadrature route confirms it numerically
  (the sin^1 variant misses by ~1e-2 relative).
* asep_asymptotic: the large-g0 closed form
  (1+K)/(2 pi g0) (pi - pi/M + sin(2 pi/M)/2)/sin^2(pi/M) e^{-K} I_0(2 Gamma K/(1+Gamma^2)).

asep_exact_grid follows the same long-double-then-escalate pattern as the
other alternating series, in three tiers.  The first pass runs on long
doubles over the whole SNR sweep.  Where its cancellation calls for more
digits, the outer sum of that point reruns in mpmath at the escalated
precision; up to 34 digits the bracket family for that rerun is built in
double-longdouble numpy arithmetic (20-40x cheaper than mpmath lists; each
factor within 1e-34 relative, measured near 1e-37), beyond that in mpmath.
A point where even the escalated path would need more than _MAX_DPS digits
gets a CancellationLossError in place of its result, so callers (the CLI
does this) can substitute asep_quadrature; asep_exact raises it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy import integrate

from .dist import SnrContext
from .errors import InvalidParameterError, QuadratureError
from .mgf import mgf_closed
from .params import TwdpParams
from .specfun import (
    SeriesControl,
    SeriesResult,
    _ARITH_LD,
    _arith_mp,
    _dd_add,
    _dd_div,
    _dd_mul,
    _dd_row_sums,
    _dd_sqrt,
    _grid,
    _ive_ladder,
    _ld_sums_to_mpf,
    _legendre_2f1_next,
    _pass_result,
    _raise_lost,
    _split,
    _sum_series,
    _two_sum,
    run_with_rescue,
    tanh_sinh_rule,
    tanh_sinh_rule_dd,
    term_hump_guard,
)

_LD = np.longdouble
_REL_TARGET = 1e-11
_MAX_DPS = 120
_TS_LEVEL_LD = 8
_TS_LEVEL_MP = 7
# relative size below which a node term is dropped from the dd bracket sums
_DD_DROP = _LD(2) ** -140


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


def _bracket_family_ld(x0: float, lam, y0_abs):
    """The factors 2F1(3/2,1+m;2;-lam) and F1(3/2;1/2,1+m;5/2;x0,-y0_abs)
    for m = 0, 1, ... at every entry of lam and y0_abs.

    Returns next_order(live): its m-th call gives the order-m factors as a
    (2, points) array, at the points marked live (0 elsewhere); a point left
    out once stays out.  The node terms are a rows x points x nodes array;
    the node axis stays last and contiguous, so each row sum adds the nodes
    in the same order as a sum over one point's nodes.
    """
    t, omt, w = tanh_sinh_rule(_TS_LEVEL_LD, _ARITH_LD)
    sq = np.sqrt(t)
    base1 = w * sq / np.sqrt(omt)
    one_minus_x0t = omt + (1 - _LD(x0)) * t  # exact near t = 1 even for x0 = 1
    base2 = w * sq / np.sqrt(one_minus_x0t)
    y = np.stack((lam, y0_abs)).astype(_LD)[:, :, None]
    g = 1 / (1 + y * t)
    p = np.stack((base1, base2))[:, None, :] * g
    c = np.array([2.0 / _ARITH_LD.pi, 1.5], dtype=_LD)[:, None]
    idx = np.arange(len(lam))

    def next_order(live):
        nonlocal p, g, idx
        keep = live[idx]
        if not keep.all():
            p, g, idx = p[:, keep], g[:, keep], idx[keep]
        out = np.zeros((2, len(lam)), dtype=_LD)
        out[:, idx] = c * p.sum(axis=-1)
        p = p * g
        return out

    return next_order


def _bracket_family_mp(x0: float, lam: float, y0_abs: float):
    be = _arith_mp()
    t, omt, w = tanh_sinh_rule(_TS_LEVEL_MP, be)
    x0b, lamb, y0b = mp.mpf(x0), mp.mpf(lam), mp.mpf(y0_abs)
    base1 = [wi * mp.sqrt(ti / oi) for ti, oi, wi in zip(t, omt, w)]
    base2 = [
        wi * mp.sqrt(ti) / mp.sqrt(oi + (1 - x0b) * ti)
        for ti, oi, wi in zip(t, omt, w)
    ]
    g1 = [1 / (1 + lamb * ti) for ti in t]
    g2 = [1 / (1 + y0b * ti) for ti in t]
    p1 = [b * g for b, g in zip(base1, g1)]
    p2 = [b * g for b, g in zip(base2, g2)]
    c1 = 2 / mp.pi
    c2 = mp.mpf(3) / 2
    while True:
        yield c1 * mp.fsum(p1), c2 * mp.fsum(p2)
        p1 = [a * g for a, g in zip(p1, g1)]
        p2 = [a * g for a, g in zip(p2, g2)]


def _bracket_family_dd(x0: float, lam: float, y0_abs: float, orders: int):
    """_bracket_family_mp in double-longdouble arithmetic, yielding mpf values.

    Row 0 of the node arrays carries the 2F1 integrand, row 1 the F1 one.
    Every node term is positive, so an order costs one dd product per node
    and an exact-extraction row sum, and each of the first `orders` factors
    keeps the digits that specfun's double-longdouble error bound states.

    Nodes whose term stays below 2^-140 of its row sum at every order are
    dropped, which costs under 2^-129 over all 1,457 nodes.  Since g <= 1, a
    node's first term bounds all its later ones, and sum_k p_k g_k^orders
    bounds the row sums from below, which drops the far tails up front.  As
    the orders go on, a node dominated by a node of smaller t (larger g)
    stays dominated, which drops the large-t side of the peak.
    """
    t, omt, w = tanh_sinh_rule_dd(_TS_LEVEL_MP)
    one = (_LD(1), _LD(0))
    # rows 1 - t and 1 - x0 t = (1 - t) + (1 - x0) t, exact near t = 1 even for x0 = 1
    one_minus_x0t = _dd_add(omt, _dd_mul(_two_sum(_LD(1), -_LD(x0)), t))
    den = tuple(np.stack(rows) for rows in zip(omt, one_minus_x0t))
    p = _dd_div(_dd_mul(w, _dd_sqrt(t)), _dd_sqrt(den))
    y = np.array([[lam], [y0_abs]], dtype=_LD)
    g = _dd_div(one, _dd_add(one, _dd_mul((y, _LD(0)), t)))
    p = _dd_mul(p, g)
    floor = _DD_DROP * (p[0] * g[0] ** orders).sum(axis=-1, keepdims=True)
    live = np.flatnonzero((p[0] > floor).any(axis=0))
    keep = slice(live[0], live[-1] + 1)
    p, g, g_split = ((a[:, keep], b[:, keep]) for a, b in (p, g, _split(g[0])))
    c1, c2 = 2 / mp.pi, mp.mpf(3) / 2
    for m in itertools.count(1):
        s1, s2 = _ld_sums_to_mpf(_dd_row_sums(p))
        yield c1 * s1, c2 * s2
        p = _dd_mul(p, g, g_split)
        if m % 8 == 0:
            live = (p[0] > _DD_DROP * np.maximum.accumulate(p[0], axis=-1)).any(axis=0)
            keep = slice(0, np.flatnonzero(live)[-1] + 1)
            p, g, g_split = ((a[:, keep], b[:, keep]) for a, b in (p, g, g_split))


def _asep_pass(p: TwdpParams, mod: ModulationSpec, gamma0, ctl: SeriesControl, be):
    """The series at the average SNRs gamma0[be.points]."""
    K = be.cast(p.k)
    g2 = be.cast(p.gamma) ** 2
    a = K / (1 + g2)
    x0 = be.cast(mod.sin2_pim)
    sp = be.sqrt(x0)
    g0 = be.cast(be.pick(gamma0))
    lam = ((1 + K) / (g0 * x0)).astype(float)
    y0_abs = ((1 + K) / g0).astype(float)
    c_bracket = 3 * be.pi / (2 * sp * x0)  # 3 pi / (2 sin^3)

    if be.name == "longdouble":
        next_order = _bracket_family_ld(mod.sin2_pim, lam, y0_abs)
    else:
        # rescued points keep one bracket family each
        if be.dd:
            fams = [_bracket_family_dd(mod.sin2_pim, lm, y0, ctl.max_terms)
                    for lm, y0 in zip(lam, y0_abs)]
        else:
            fams = [_bracket_family_mp(mod.sin2_pim, lm, y0) for lm, y0 in zip(lam, y0_abs)]

        def next_order(live):
            return np.array([next(f) if on else (0, 0) for f, on in zip(fams, live)],
                            dtype=object).T
    leg_prev, leg = be.cast(0.0), be.cast(1.0)
    cm = be.cast(1.0)

    def term(m, live):
        nonlocal leg_prev, leg, cm
        t1, f1 = next_order(live)
        # array operand first: an mpf meeting an array tries (slowly) to convert it
        t = (t1 * c_bracket - f1) * (cm * leg)
        leg_prev, leg = leg, _legendre_2f1_next(m, leg, leg_prev, g2)
        cm = cm * (-a) / (m + 1)
        return t

    s, n, last, possum, ok = _sum_series(
        term, len(g0), ctl, min_terms=term_hump_guard(p.k, p.gamma)
    )
    pref = sp * (1 + K) / (3 * be.pi * g0)
    return _pass_result("asep", pref, s, n, last, possum, ok)


def asep_exact(
    p: TwdpParams, mod: ModulationSpec, gamma0: float, ctl: SeriesControl | None = None
) -> SeriesResult:
    """Exact M-PSK symbol error probability from the explicit series.

    Raises CancellationLossError where the series would need more than
    _MAX_DPS digits.
    """
    return _raise_lost(asep_exact_grid(p, mod, [gamma0], ctl))[0]


def asep_exact_grid(
    p: TwdpParams, mod: ModulationSpec, gamma0s, ctl: SeriesControl | None = None
) -> list:
    """Exact M-PSK symbol error probability along a sweep of average SNRs.

    Returns a SeriesResult per point, or the CancellationLossError of a
    point where the series would need more than _MAX_DPS digits (callers
    such as the CLI substitute asep_quadrature there).
    """
    g0 = _grid(gamma0s, lambda v: np.isfinite(v) & (v > 0), "gamma0 must be positive")
    ctl = ctl or SeriesControl()
    return run_with_rescue(
        lambda be: _asep_pass(p, mod, g0, ctl, be),
        len(g0),
        _REL_TARGET,
        max_dps=_MAX_DPS,
        what=lambda i: f"asep series at K={p.k}, Gamma={p.gamma}, gamma0={float(g0[i])}",
        dd_kernels=True,
    )


def asep_asymptotic(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """High-SNR closed-form M-PSK symbol error probability."""
    if gamma0 <= 0 or not math.isfinite(gamma0):
        raise InvalidParameterError(f"gamma0 must be positive, got {gamma0}")
    M = mod.m_order
    k = _LD(p.k)
    g = _LD(p.gamma)
    angle = _LD(math.pi - math.pi / M + 0.5 * math.sin(2.0 * math.pi / M))
    xarg = 2 * g * k / (1 + g * g)  # <= K, so the joint exponent stays <= 0
    scale = (1 + k) / (2 * _ARITH_LD.pi * _LD(gamma0) * _LD(mod.sin2_pim))
    value = scale * angle * np.exp(xarg - k) * _ive_ladder(xarg, 0)[0]
    return float(value)


def asep_quadrature(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """M-PSK symbol error probability by adaptive quadrature of the MGF integral."""
    if gamma0 <= 0 or not math.isfinite(gamma0):
        raise InvalidParameterError(f"gamma0 must be positive, got {gamma0}")
    ctx = SnrContext.from_average_snr(p, gamma0)
    c = mod.sin2_pim

    def integrand(theta: float) -> float:
        st = math.sin(theta)
        if st <= 0.0:
            return 0.0
        s = -c / (st * st)
        if not math.isfinite(s):
            return 0.0
        return mgf_closed(p, ctx, s)

    upper = math.pi - math.pi / mod.m_order
    out = integrate.quad(
        integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-10, limit=200, full_output=1
    )
    val, err = out[0], out[1]
    if len(out) > 3:  # ier != 0 message appended
        raise QuadratureError(f"asep quadrature failed: {out[3]}", err)
    return val / math.pi
