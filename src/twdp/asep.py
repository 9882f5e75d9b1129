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
doubles over the whole SNR sweep.  The points whose cancellation calls for
more digits rerun together in double-longdouble numpy arithmetic, bracket
family and outer sum alike (each bracket factor within 22 m u^2, u = 2^-64,
measured near 1e-37; about 34 digits in all, see specfun._DD_EPS).  Only
the points that pass cannot vouch for rerun in mpmath at the digits their
cancellation calls for, again together, on object arrays of mpf values.  One
bracket family serves all three tiers.  A point whose series has not
converged within specfun._MAX_TERMS terms gets a SeriesDivergenceError in
place of its result, and one that would need more than 120 digits
(specfun._MAX_DPS) a CancellationLossError, so callers (the CLI does this)
can substitute asep_quadrature; asep_exact raises either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.integrate loads on first use, not at import

from .errors import InvalidParameterError, QuadratureError
from .mgf import mgf_closed
from .params import TwdpParams
from .specfun import (
    SeriesResult,
    _MAX_TERMS,
    _ARITH_LD,
    _check_gamma0,
    _exp_i0,
    _legendre_2f1_next,
    _pass_result,
    _raise_lost,
    _sum_series,
    run_with_rescue,
    tanh_sinh_rule,
    term_hump_guard,
)

_LD = np.longdouble
# tanh-sinh levels of the bracket family: the long-double pass keeps its
# finer table, the rescue tiers share the 2^-7 step
_TS_LEVEL_LD = 8
_TS_LEVEL = 7
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


def _bracket_family(x0: float, lam, y0_abs, be):
    """The factors 2F1(3/2,1+m;2;-lam) and F1(3/2;1/2,1+m;5/2;x0,-y0_abs)
    for m = 0, 1, ... at every entry of lam and y0_abs, in be's arithmetic.

    Returns next_order(live): its m-th call gives the order-m factors as a
    (2, points) array, at the points marked live (0 elsewhere); a point left
    out once stays out.  The node terms are a rows x points x nodes array;
    the node axis stays last and contiguous, so each row sum adds the nodes
    in the same order as a sum over one point's nodes.  For M = 2 (x0 = 1,
    so lam = y0_abs) both integrands are the same, and one row serves both.
    Every node term is positive, so an order costs one product per node and
    a row sum (by exact extraction in dd, where the factors of the first
    _MAX_TERMS orders stay within specfun's dd product bound).

    The dd pass drops node terms that stay below 2^-140 of their row sum at
    every order, at every point, which costs under 2^-129 over all 1,457
    nodes.  Since g <= 1, a node's first term bounds all its later ones, and
    sum_k p_k g_k^_MAX_TERMS bounds the row sums from below, which drops the
    far tails up front.  As the orders go on, a node dominated by a node of
    smaller t (larger g) stays dominated, which drops the large-t side of
    the peak.  The long-double pass keeps every node of its finer table: a
    drop there would change which nodes its row sums add, and with them the
    last digits of its values.
    """
    t, omt, w = tanh_sinh_rule(_TS_LEVEL_LD if be.name == "longdouble" else _TS_LEVEL, be)
    rows = slice(1 if x0 == 1.0 else 2)
    # 1 - x t = (1 - t) + (1 - x) t, exact near t = 1; x = 1 on the 2F1 row
    x = be.cast(np.array([1.0, x0]))[rows, None, None]
    y = be.cast(np.array([lam, y0_abs]))[rows, :, None]
    g = 1 / (1 + y * t)
    p = w * be.sqrt(t) / be.sqrt(omt + (1 - x) * t) * g
    drop = be.name == "dd"
    if drop:
        floor = _DD_DROP * (p.hi * g.hi ** _MAX_TERMS).sum(axis=-1, keepdims=True)
        live = np.flatnonzero((p.hi > floor).any(axis=(0, 1)))
        p, g = p[..., live[0]:live[-1] + 1], g[..., live[0]:live[-1] + 1]
    c1, c2 = 2 / be.pi, 1.5
    idx = np.arange(len(lam))
    m = 0

    def next_order(live):
        nonlocal p, g, idx, m
        keep = live[idx]
        if not keep.all():
            p, g, idx = p[:, keep], g[:, keep], idx[keep]
        out = be.cast(np.zeros((2, len(lam))))
        sums = p.sum(axis=-1)
        out[0, idx], out[1, idx] = c1 * sums[0], c2 * sums[-1]
        p = p * g
        m += 1
        if drop and m % 8 == 0:
            big = (p.hi > _DD_DROP * np.maximum.accumulate(p.hi, axis=-1)).any(axis=(0, 1))
            keep = slice(0, np.flatnonzero(big)[-1] + 1)
            p, g = p[..., keep], g[..., keep]
        return out

    return next_order


def _asep_pass(p: TwdpParams, mod: ModulationSpec, gamma0, be):
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

    next_order = _bracket_family(mod.sin2_pim, lam, y0_abs, be)
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

    s, n, last, possum, ok = _sum_series(term, len(g0), min_terms=term_hump_guard(p.k, p.gamma))
    pref = sp * (1 + K) / (3 * be.pi * g0)
    return _pass_result(pref, s, n, last, possum, ok)


def asep_exact(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> SeriesResult:
    """Exact M-PSK symbol error probability from the explicit series.

    Raises SeriesDivergenceError where the series does not converge within
    its term budget, and CancellationLossError where it would need more
    than 120 digits.
    """
    return _raise_lost(asep_exact_grid(p, mod, [gamma0]))[0]


def asep_exact_grid(p: TwdpParams, mod: ModulationSpec, gamma0s) -> list:
    """Exact M-PSK symbol error probability along a sweep of average SNRs.

    Returns a SeriesResult per point, or in its place the
    SeriesDivergenceError of a point where the series does not converge
    within its term budget, or the CancellationLossError of one where it
    would need more than 120 digits (callers such as the CLI substitute
    asep_quadrature there).
    """
    g0 = np.array([_check_gamma0(v) for v in np.asarray(gamma0s, dtype=float).ravel()])
    return run_with_rescue(
        lambda be: _asep_pass(p, mod, g0, be),
        len(g0),
        what=lambda i: f"asep series at K={p.k}, Gamma={p.gamma}, gamma0={float(g0[i])}",
    )


def asep_asymptotic(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """High-SNR closed-form M-PSK symbol error probability."""
    _check_gamma0(gamma0)
    M = mod.m_order
    k = _LD(p.k)
    g = _LD(p.gamma)
    angle = _LD(math.pi - math.pi / M + 0.5 * math.sin(2.0 * math.pi / M))
    xarg = 2 * g * k / (1 + g * g)  # <= K, so the joint exponent stays <= 0
    scale = (1 + k) / (2 * _ARITH_LD.pi * _LD(gamma0) * _LD(mod.sin2_pim))
    return _exp_i0(scale * angle, -k, xarg)


def asep_quadrature(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """M-PSK symbol error probability by adaptive quadrature of the MGF integral."""
    _check_gamma0(gamma0)
    c = mod.sin2_pim

    def integrand(theta: float) -> float:
        st = math.sin(theta)
        if st <= 0.0:
            return 0.0
        s = -c / (st * st)
        if not math.isfinite(s):
            return 0.0
        return mgf_closed(p, gamma0, s)

    upper = math.pi - math.pi / mod.m_order
    out = scipy.integrate.quad(
        integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-10, limit=200, full_output=1
    )
    val, err = out[0], out[1]
    if len(out) > 3:  # ier != 0 message appended
        raise QuadratureError(f"asep quadrature failed: {out[3]}", err)
    return val / math.pi
