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

asep_exact_grid sums the sweep in specfun.run_with_rescue's one loop, like
the other alternating series.  The first pass runs on long doubles over the
whole SNR sweep.  The points whose cancellation calls for more digits, or
whose series does not converge within specfun._MAX_TERMS terms, rerun
together as the positive mixture

    P = (1/pi) sum_k w_k E_(k+1),    E_n = int_0^{pi - pi/M} h^n dphi,
    h = sin^2 phi / (sin^2 phi + g),  g = sin^2(pi/M) g0/(1+K),

over the model's Poisson mixing weights w_k: given the phases, TWDP is
Rician, a Poisson mixture of Nakagami-(k+1) fading, and (1/pi) E_(k+1) is
M-PSK's error rate over Nakagami-(k+1) fading (Simon & Alouini, Digital
Communication over Fading Channels, 2nd ed., ch. 8).  _nakagami_orders gives
E_n from a recurrence in n.  A point the mixture does not converge at gets
a SeriesDivergenceError in place of its result; callers (the CLI does this)
can substitute asep_quadrature there, and asep_exact raises it.  Every pass
runs on long doubles, the bracket family's seeds (_f1_seeds) included, and
takes the average SNR as rho = (1+K)/g0 (specfun.snr_rho), finite at every
double g0, subnormals included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.integrate loads on first use, not at import

from .errors import InvalidParameterError, QuadratureError
from .mgf import mgf_closed
from .params import TwdpParams
from .specfun import (
    _PI,
    SeriesResult,
    _check_gamma0,
    _exp_i0,
    _grid,
    _raise_lost,
    coef_series,
    mixture_series,
    mixture_terms,
    run_with_rescue,
    snr_rho,
)

_LD = np.longdouble
# 3 pi/4, the F1 factor over the 2F1 one at M = 2, as the nearest long double
_THREE_PI_4 = _LD("2.356194490192344928846982537459627163")


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


def _minus_sin(z):
    """z - sin z at 0 <= z <= pi, by its power series."""
    acc = 1
    for j in range(17, 0, -1):
        acc = 1 - z * z / ((2 * j + 2) * (2 * j + 3)) * acc
    return z ** 3 / 6 * acc


def _minus_atan(z):
    """z - atan z at z >= 0: its power series below 3/4, directly (>= z/7) above."""
    w, acc = np.minimum(z, 0.75) ** 2, 0
    for j in range(72, 0, -1):
        acc = 1 / _LD(2 * j + 1) - w * acc
    return np.where(z < 0.75, z ** 3 * acc, z - np.arctan(z))


def _f1_seeds(x: float, y):
    """1.5 J_1(x, y) and 1.5 J_2(x, y) at x < 1 and every y > 0, as long
    doubles, from sums of positive terms.  t = sin^2 phi/x gives J_(m+1) =
    (2g/x^(3/2)) int_0^alpha h (1-h)^m dphi, alpha = arcsin sqrt(x), g =
    x/y, h = sin^2 phi/(sin^2 phi + g).  With T^2 = x/(1-x), kappa =
    sqrt(1+1/g), d = kappa-1 = 1/(g(kappa+1)), z = dT/(1+kappa T^2), b =
    x+y and psi = atan sqrt(b/(1-x)), int_0^alpha h dphi = f/kappa, and

        f = kappa alpha - atan(kappa T) = z - atan z
            + d ((alpha - sin alpha cos alpha)(1+T^2) + alpha d T^2)/(1+kappa T^2),
        1.5 J_1 = 3 f/(kappa y sqrt(x)),  1.5 J_2 = 0.75 (2 psi - sin 2 psi)/b^(3/2).
    """
    x, y = _LD(x), y.astype(_LD)
    t2 = x / (1 - x)
    alpha, kappa = np.arctan(np.sqrt(t2)), np.sqrt(1 + y / x)
    d, den = y / (x * (kappa + 1)), 1 + kappa * t2
    f = (d * (_minus_sin(2 * alpha) / 2 * (1 + t2) + alpha * d * t2) / den
         + _minus_atan(d * np.sqrt(t2) / den))
    b = x + y
    psi = np.arctan(np.sqrt(b / (1 - x)))
    return 3 * f / (kappa * y * np.sqrt(x)), 0.75 * _minus_sin(2 * psi) / (b * np.sqrt(b))


def _bracket_family(x0: float, lam, y0_abs):
    """The factors 2F1(3/2,1+m;2;-lam) and F1(3/2;1/2,1+m;5/2;x0,-y0_abs)
    for m = 0, 1, ... at every entry of lam and y0_abs, in long double.

    Returns next_order(): its m-th call gives the order-m factors as a pair
    (2F1 factors, F1 factors) of arrays over all points.  Each point's
    recurrence is its own, so a point runs on unchanged after its outer sum
    has stopped (_sum_series keeps that sum).  Both factors are multiples
    c J_n(x, y) of

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
    at x0 < 1 the closed forms of _f1_seeds, in long double too.  An order
    costs O(1) operations per point.
    """
    rows = 1 if x0 == 1.0 else 2
    x = np.array([1.0, x0][:rows], dtype=_LD)[:, None]
    y = np.array([lam, y0_abs][:rows], dtype=_LD)
    v, v_next = np.zeros((2, rows, len(lam)), dtype=_LD)
    s = np.sqrt(1 + y[0])
    v[0], v_next[0] = 2 / (s * (1 + s)), 1 / (s * s * s)
    b = v * 0
    if rows == 2:
        v[1], v_next[1] = _f1_seeds(x0, y0_abs)
        b[1] = 1.5 * np.sqrt(1 - x[1]) / ((1 + y[1]) * (1 + y[1]))
    g, q, r = 1 / (1 + y), y / (x + y), x / (x + y)
    d = v * 0
    n = 2

    def next_order():
        nonlocal v, v_next, b, d, n
        # at x0 = 1 the F1 factor is 3 pi/4 times the 2F1 one
        out = v[0], v[1] if rows == 2 else _THREE_PI_4 * v[0]
        d = (q * (1.5 * v_next - b) + (n - 2) * (r * d)) / n
        v, v_next = v_next, v_next - d
        b = b * g
        n += 1
        return out

    return next_order


def _asep_pass(p: TwdpParams, mod: ModulationSpec, gamma0, ps):
    """The error rate at the average SNRs gamma0[ps.points] in the tier
    ps.name: coef_series with u = -1, or the mixture, at rho = (1+K)/g0:
    lam = rho/sin^2(pi/M), y0_abs = rho and g = sin^2(pi/M)/rho."""
    x0 = _LD(mod.sin2_pim)
    rho = snr_rho(p.k, gamma0[ps.points])
    if ps.name == "mixture":
        return _asep_mixture(p, mod, x0 / rho)
    sp = np.sqrt(x0)
    c_bracket = 3 * _PI / (2 * sp * x0)  # 3 pi / (2 sin^3)

    next_order = _bracket_family(mod.sin2_pim, rho / x0, rho)

    def bracket(m):
        # both parts are positive and fall with m: the larger bounds later ones
        t1, f1 = next_order()
        t1 = t1 * c_bracket
        return t1 - f1, np.maximum(t1, f1)

    return coef_series(p, -1, bracket, len(rho), sp * rho / (3 * _PI))


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

    With beta = 1+g and H = sin^2(pi/M)/(sin^2(pi/M) + g), the substitution
    h(phi) maps [0, pi/2] onto [0, 1/beta] and [pi/2, pi-pi/M] back onto
    [H, 1/beta], so

        E_m - E_(m+1) = P_m = (sqrt(g)/2) (2 Q_m(1/beta) - Q_m(H)),
        Q_m(H) = int_0^H h^(m-1/2) (1 - beta h)^(-1/2) dh,

    and integrating d/dh [h^(m+1/2) (1 - beta h)^(1/2)] gives (m+1/2) Q_m -
    beta (m+1) Q_(m+1) = H^(m+1/2) (1 - beta H)^(1/2), Q_0(H) =
    2 arcsin(sqrt(beta H))/sqrt(beta).  At H = 1/beta the right side
    vanishes: Q_m(1/beta) = pi/sqrt(beta) L_m, L_m = prod_{i<m} (i+1/2) /
    (beta (i+1)).  Below it the recurrence, solved backward, is a sum of
    positive terms: Q_m(H) = L_m sum_{j>=m} r_j, r_0 = 2 sqrt(H (1 - beta
    H)), r_(j+1)/r_j = beta H (j+1)/(j+3/2).  E_m = sum_{j>=m} P_j, whose
    terms fall by 1/beta or faster.  Each tail (_tails) sums its terms over
    a window past the orders needed, long enough for them to fall by e^-46,
    but at most 8 times those orders: where that cuts it short, the terms
    fall so slowly that taking the rest as the total less the window's sum
    loses under 6 bits.  At M = 2, H = 1/beta and P_m = (sqrt(g)/2)
    Q_m(1/beta).
    """
    def window(rate, m):
        return m + math.ceil(min(46 / rate if rate > 0 else math.inf, 8 * m + 64))

    beta = 1 + g
    n_p = window(float(np.log1p(g)), n + 1)
    i = np.arange(1, n_p, dtype=_LD)
    lm = np.cumprod(np.append(_LD(1), (i - _LD(0.5)) / (beta * i)))
    q_top = _PI / np.sqrt(beta) * lm
    if mod.m_order == 2:
        p_m = np.sqrt(g) / 2 * q_top
    else:
        s = _LD(mod.sin2_pim)
        bh = beta * s / (s + g)
        n_q = window(float(np.log1p(g / s) - np.log1p(g)), n_p)
        j = np.arange(1, n_q, dtype=_LD)
        r = (2 * np.sqrt(s / (s + g) * (g * (1 - s) / (s + g)))
             * np.cumprod(np.append(_LD(1), bh * j / (j + _LD(0.5)))))
        q_h = lm * _tails(r, bh, 2 * np.arcsin(np.sqrt(bh)) / np.sqrt(beta))[:n_p]
        p_m = np.sqrt(g) / 2 * (2 * q_top - q_h)
    return _tails(p_m, 1 / beta, _PI - _PI / mod.m_order)[1:n + 1]


def asep_exact(p: TwdpParams, mod: ModulationSpec, gamma0: float) -> SeriesResult:
    """Exact M-PSK symbol error probability from the explicit series.

    Raises SeriesDivergenceError where neither the series nor its mixture
    converges within its term budget.
    """
    return _raise_lost(asep_exact_grid(p, mod, [gamma0]))[0]


def asep_exact_grid(p: TwdpParams, mod: ModulationSpec, gamma0s) -> list:
    """Exact M-PSK symbol error probability along a sweep of average SNRs.

    Returns a SeriesResult per point, or in its place the
    SeriesDivergenceError of a point where neither the series nor its
    mixture converges within its term budget (callers such as the CLI
    substitute asep_quadrature there).
    """
    g0 = _grid(gamma0s, lambda v: (v > 0) & np.isfinite(v), "gamma0 must be positive and finite")

    def what(i):
        return f"asep series at K={p.k}, Gamma={p.gamma}, gamma0={float(g0[i])}"

    return run_with_rescue(lambda ps: _asep_pass(p, mod, g0, ps), [None] * len(g0), what)


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
        integrand, 0.0, upper, epsabs=0.0, epsrel=1e-10, limit=200 + len(points),
        points=points or None, full_output=1,
    )
    val, err = out[0], out[1]
    if len(out) > 3:  # ier != 0 message appended
        raise QuadratureError(f"asep quadrature failed: {out[3]}", err)
    return val / math.pi
