"""Average symbol error probability of coherent M-ary PSK over TWDP fading.

Three routes:

* asep_quadrature: (1/pi) int_0^{pi - pi/M} M(-sin^2(pi/M)/sin^2 th) dth with
  the closed-form MGF.  Unambiguous, treated as ground truth by the tests.
  At low g0 the integrand rises within a layer at th = 0 of width
  sqrt(sin^2(pi/M) g0/(1+K)); geometric breakpoints resolve a thin one.
* asep_exact: the explicit series

    P = sin(pi/M) (1+K)/(3 pi g0) sum_m (1/m!) (-K/(1+Gamma^2))^m
        2F1(-m,-m;1;Gamma^2) [ 3 pi/(2 sin^3(pi/M))
                               2F1(3/2, 1+m; 2; -(1+K)/(g0 sin^2(pi/M)))
                               - F1(3/2; 1/2, 1+m; 5/2; sin^2(pi/M), -(1+K)/g0) ]

  Both bracket factors are Euler integrals over t in (0, 1) whose integrands
  differ across m only through a power (1 + y t)^{-(1+m)}, and integrating
  by parts ties three consecutive orders together: a three-term recurrence
  in m (see _bracket_family) gives each further order in O(1) operations
  per point, at working-precision relative accuracy, which the outer
  alternating sum needs because its terms grow far past the result before
  decaying.  The 2F1 argument uses sin^2(pi/M): substituting th = pi/2 into
  the indefinite integral fixes the power, and the quadrature route
  confirms it numerically (the sin^1 variant misses by ~1e-2 relative).
* asep_asymptotic: the large-g0 closed form
  (1+K)/(2 pi g0) (pi - pi/M + sin(2 pi/M)/2)/sin^2(pi/M) e^{-K} I_0(2 Gamma K/(1+Gamma^2)).

asep_exact_grid follows the same long-double-then-escalate pattern as the
other alternating series, in three tiers.  The first pass runs on long
doubles over the whole SNR sweep.  The points whose cancellation calls for
more digits rerun together in double-longdouble numpy arithmetic, bracket
recurrence and outer sum alike (each bracket factor measured within 75 u^2,
u = 2^-64, over 500 orders; about 34 digits in all, see specfun._DD_EPS).  Only
the points that pass cannot vouch for rerun in mpmath at the digits their
cancellation calls for, again together, on object arrays of mpf values.  One
bracket family serves all three tiers.  A point whose series has not
converged within specfun._MAX_TERMS terms gets a SeriesDivergenceError in
place of its result, and so does, before any pass, one whose (1+K)/(g0
sin^2(pi/M)) overflows double (g0 below about 1e-307, -3070 dB); one that
would need more than 120 digits (specfun._MAX_DPS) gets a
CancellationLossError, so callers (the CLI does this) can substitute
asep_quadrature; asep_exact raises either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.integrate loads on first use, not at import

from .errors import InvalidParameterError, QuadratureError, SeriesDivergenceError
from .mgf import mgf_closed
from .params import TwdpParams
from .specfun import (
    SeriesResult,
    _ARITH_LD,
    _check_gamma0,
    _exp_i0,
    _legendre_2f1_next,
    _legendre_coefs,
    _pass_result,
    _raise_lost,
    _sum_series,
    run_with_rescue,
    term_hump_guard,
)

_LD = np.longdouble


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


def _f1_seeds(x: float, y, be):
    """1.5 J_1(x, y) and 1.5 J_2(x, y) at x < 1 and every y > 0, in be's
    arithmetic.

    With theta = arcsin sqrt(x), phi = arcsin sqrt((x+y)/(1+y)) and b = x + y
    (substitute t = s^2/(1 + x s^2) and split into partial fractions),

        J_1 = 2 (theta/sqrt(x) - phi/sqrt(b))/y,
        J_2 = (phi/sqrt(b) - sqrt(1-x)/(1+y))/b.

    J_1 cancels by up to about 5 (1+y)/y and J_2 by up to about 1.5/x, so
    each point is evaluated in mpmath with that many bits, and 24 more,
    beyond those be's eps asks for, and then rounded to be.
    """
    import mpmath as mp
    base = int(-math.log2(be.eps)) + 24
    out = []
    for v in y.tolist():
        with mp.workprec(base + int(math.log2(1 + v) - math.log2(v) - math.log2(x)) + 3):
            X, Y = mp.mpf(x), mp.mpf(v)
            b = X + Y
            f = mp.asin(mp.sqrt(b / (1 + Y))) / mp.sqrt(b)
            out += [3 * (mp.asin(mp.sqrt(X)) / mp.sqrt(X) - f) / Y,
                    (f - mp.sqrt(1 - X) / (1 + Y)) * 1.5 / b]
    vals = be.from_mpf(out)
    return vals[0::2], vals[1::2]


def _bracket_family(x0: float, lam, y0_abs, be):
    """The factors 2F1(3/2,1+m;2;-lam) and F1(3/2;1/2,1+m;5/2;x0,-y0_abs)
    for m = 0, 1, ... at every entry of lam and y0_abs, in be's arithmetic.

    Returns next_order(live): its m-th call gives the order-m factors as a
    (2, points) array, at the points marked live (0 elsewhere); a point left
    out once stays out.  Both factors are multiples c J_n(x, y) of

        J_n(x, y) = int_0^1 sqrt(t) (1 - x t)^(-1/2) (1 + y t)^(-n) dt

    at n = m + 1: the 2F1 one with c = 2/pi at x = 1, y = lam, the F1 one
    with c = 3/2 at x = x0, y = y0_abs.  For M = 2 (x0 = 1, so lam = y0_abs)
    one row serves both.  Integrating d/dt [t^(3/2) (1-xt)^(1/2) (1+yt)^(-n)]
    over (0, 1) gives a three-term recurrence in n (at x = 1 Gauss's
    contiguous relation in b, DLMF 15.5.E12), run here on the differences
    D_n = V_n - V_{n+1} of the row values V_n = c J_n:

        n (x + y) D_n = y (3/2 V_n - b_n) + (n - 2) x D_{n-1},
        b_n = c sqrt(1 - x) (1 + y)^(-n).

    J_n decays algebraically in n and the other solution like (x/(x+y))^n,
    so the forward recursion is stable (Gil, Segura & Temme, Numerical
    Methods for Special Functions, SIAM 2007, ch. 4).  As y -> 0 both
    solutions flatten, and the three-term form itself loses digits at a rate
    that grows with n (3.5e4 u after 500 orders at y = 1e-8, u the unit
    roundoff); on the differences the rounding stays within about 130 u
    over 500 orders for M up to 64.
    The term in D_1 vanishes at n = 2, so J_1 and J_2 seed it: at x = 1,
    2/pi J_1 = 2/(s (1 + s)) and 2/pi J_2 = s^-3 with s = sqrt(1 + lam);
    at x0 < 1 see _f1_seeds.  An order costs O(1) operations per point.
    """
    rows = 1 if x0 == 1.0 else 2
    x = be.cast(np.array([1.0, x0][:rows]))[:, None]
    y = be.cast(np.array([lam, y0_abs][:rows]))
    v, v_next = be.cast(np.zeros((2, rows, len(lam))))
    s = be.sqrt(1 + y[0])
    v[0], v_next[0] = 2 / (s * (1 + s)), 1 / (s * s * s)
    b = v * 0
    if rows == 2:
        v[1], v_next[1] = _f1_seeds(x0, y0_abs, be)
        b[1] = 1.5 * be.sqrt(1 - x[1]) / ((1 + y[1]) * (1 + y[1]))
    else:
        # at x0 = 1 the F1 factor is 3 pi/4 times the 2F1 one
        import mpmath as mp
        with mp.workprec(int(-math.log2(be.eps)) + 24):
            to_f1 = 3 * mp.pi / 4
        to_f1 = be.from_mpf([to_f1])[0]
    g, q, r = 1 / (1 + y), y / (x + y), x / (x + y)
    d = v * 0
    idx = np.arange(len(lam))
    n = 2

    def next_order(live):
        nonlocal v, v_next, b, g, q, r, d, idx, n
        keep = live[idx]
        if not keep.all():
            v, v_next, b, g, q, r, d = (a[:, keep] for a in (v, v_next, b, g, q, r, d))
            idx = idx[keep]
        out = be.cast(np.zeros((2, len(lam))))
        out[0, idx] = v[0]
        out[1, idx] = v[1] if rows == 2 else to_f1 * v[0]
        d = (q * (1.5 * v_next - b) + (n - 2) * (r * d)) / n
        v, v_next = v_next, v_next - d
        b = b * g
        n += 1
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
    coefs = _legendre_coefs(g2)
    cm = be.cast(1.0)

    def term(m, live):
        nonlocal leg_prev, leg, cm
        t1, f1 = next_order(live)
        # array operand first: an mpf meeting an array tries (slowly) to convert it
        t = (t1 * c_bracket - f1) * (cm * leg)
        leg_prev, leg = leg, _legendre_2f1_next(m, leg, leg_prev, coefs)
        cm = cm * (-a) / (m + 1)
        return t

    s, n, last, possum, ok = _sum_series(term, len(g0), be, min_terms=term_hump_guard(p.k, p.gamma))
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
    within its term budget or cannot be summed at all, or the
    CancellationLossError of one where it would need more than 120 digits
    (callers such as the CLI substitute asep_quadrature there).
    """
    g0 = np.array([_check_gamma0(v) for v in np.asarray(gamma0s, dtype=float).ravel()])

    def what(i):
        return f"asep series at K={p.k}, Gamma={p.gamma}, gamma0={float(g0[i])}"

    # the bracket family takes lam = (1+K)/(gamma0 sin^2(pi/M)), computed as
    # in _asep_pass, as a double; a point where it overflows gets no pass
    with np.errstate(over="ignore"):
        lam = ((1 + _LD(p.k)) / (g0.astype(_LD) * _LD(mod.sin2_pim))).astype(float)
    fits = np.isfinite(lam)
    idx = np.flatnonzero(fits)
    summed = iter(run_with_rescue(lambda be: _asep_pass(p, mod, g0[idx], be), len(idx),
                                  what=lambda j: what(idx[j])))
    return [next(summed) if ok else SeriesDivergenceError(
        f"{what(i)} cannot be summed: (1+K)/(gamma0 sin^2(pi/M)) overflows double", 0)
        for i, ok in enumerate(fits)]


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
    scale = (1 + k) / (2 * _ARITH_LD.pi * _LD(gamma0) * _LD(mod.sin2_pim))
    value = _exp_i0(scale * angle, -k, xarg)
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"the asymptotic error rate at gamma0={gamma0} overflows double")
    return value


def asep_quadrature(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> float:
    """M-PSK symbol error probability by adaptive quadrature of the MGF integral."""
    _check_gamma0(gamma0)
    c = mod.sin2_pim

    def integrand(theta: float) -> float:
        st = math.sin(theta)
        st2 = st * st
        if st2 <= 0.0:  # theta = 0, or sin^2 underflows in the breakpoints' reach
            return 0.0
        s = -c / st2
        if not math.isfinite(s):
            return 0.0
        return mgf_closed(p, gamma0, s)

    upper = math.pi - math.pi / mod.m_order
    # at low SNR the integrand climbs from 0 to about 1 within a layer of
    # width w = sqrt(sin^2(pi/M) gamma0 / (1+K)) at theta = 0, too thin for
    # quad to find unaided; geometric breakpoints w 8^j lead it there
    w = math.sqrt(c) * math.sqrt(gamma0 / (1.0 + p.k))
    points = []
    if 0.0 < w < 0.01 * upper:
        while w < upper / 2:
            points.append(w)
            w *= 8.0
    out = scipy.integrate.quad(
        integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-10, limit=200 + len(points),
        points=points or None, full_output=1,
    )
    val, err = out[0], out[1]
    if len(out) > 3:  # ier != 0 message appended
        raise QuadratureError(f"asep quadrature failed: {out[3]}", err)
    return val / math.pi
