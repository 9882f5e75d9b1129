"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's own evaluation routes:
closed forms, brute-force series, and direct numerical integrals only.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from twdp import (
    InvalidParameterError,
    QuadratureError,
    SeriesDivergenceError,
    SeriesResult,
    TwdpParams,
)
from twdp import specfun

# (K, Gamma) sets used for every figure-style check
FIGURE_SETS = [(0.0, 0.0), (8.0, 0.0), (8.0, 0.5), (14.0, 1.0)]


@pytest.fixture(scope="session")
def figure_params():
    return [TwdpParams(k=k, gamma=g) for k, g in FIGURE_SETS]


@pytest.fixture
def rel_tol_1e6(monkeypatch):
    """The series stopping rule at a 1e-6 relative tail, the one the paper's
    truncation counts refer to."""
    monkeypatch.setattr(specfun, "_REL_TOL", 1e-6)


def rayleigh_bpsk(gamma0: float) -> float:
    """Average BPSK error probability over Rayleigh fading."""
    return 0.5 * (1.0 - math.sqrt(gamma0 / (1.0 + gamma0)))


def rayleigh_mpsk(m_order: int, gamma0: float) -> float:
    """Closed-form M-PSK error probability over Rayleigh fading."""
    g = gamma0 * math.sin(math.pi / m_order) ** 2
    r = math.sqrt(g / (1.0 + g))
    return (m_order - 1) / m_order - (r / math.pi) * (
        math.pi / 2 + math.atan(r / math.tan(math.pi / m_order))
    )


def rician_mgf(k: float, gamma0: float, s: float) -> float:
    """Rician SNR MGF, independent of the package's implementation."""
    den = 1.0 + k - gamma0 * s
    return (1.0 + k) / den * math.exp(gamma0 * k * s / den)


def rician_mpsk_quad(k: float, m_order: int, gamma0: float) -> float:
    """M-PSK error probability over Rician fading by direct MGF integration."""
    c = math.sin(math.pi / m_order) ** 2

    def f(theta):
        st = math.sin(theta)
        if st <= 0.0:
            return 0.0
        return rician_mgf(k, gamma0, -c / (st * st))

    v, _ = integrate.quad(f, 0.0, math.pi - math.pi / m_order,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
    return v / math.pi


def gauss_2f1_series(a: float, b: float, c: float, z: float, n: int = 400) -> float:
    """Plain Gauss series for |z| < 1 (oracle use only)."""
    assert abs(z) < 1.0
    term = 1.0
    total = 1.0
    for j in range(n):
        term *= (a + j) * (b + j) * z / ((c + j) * (j + 1))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def euler_2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1 by adaptive quadrature of the Euler integral (needs c > a > 0 here,
    integrating over the first-parameter slot)."""
    coef = math.gamma(c) / (math.gamma(a) * math.gamma(c - a))

    def f(t):
        return t ** (a - 1.0) * (1.0 - t) ** (c - a - 1.0) * (1.0 - z * t) ** (-b)

    v, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return coef * v


def appell_f1_double_series(m: int, x: float, y: float) -> float:
    """F1(3/2; 1/2, 1+m; 5/2; x, y) by brute-force double series.

    The y direction goes through the Pfaff-type transform
    F1(a; b1, b2; c; x, y) = (1-y)^(-a) F1(a; b1, c-b1-b2; c;
    (x-y)/(1-y), y/(y-1)), whose second series terminates because
    c - b1 - b2 = 1 - m is a nonpositive integer.  Terms are built by
    recurrence so that no factorial-scale intermediate appears.
    """
    a, b1, c = 1.5, 0.5, 2.5
    b2p = 1.0 - m  # = c - b1 - (1 + m)
    xp = (x - y) / (1.0 - y)
    v = y / (y - 1.0)
    total = 0.0
    col = 1.0  # term at (i, j=0): updated by i-recurrence
    for i in range(2000):
        term = col
        inner = term
        for j in range(m):  # j-recurrence; terminates after j = m
            term *= (a + i + j) * (b2p + j) * v / ((c + i + j) * (j + 1))
            inner += term
        total += inner
        if i > 5 and abs(inner) < 1e-18 * abs(total):
            break
        col *= (a + i) * (b1 + i) * xp / ((c + i) * (i + 1))
    return (1.0 - y) ** (-a) * total


# ---------------------------------------------------------------------------
# test-only special functions (oracles for the kernel and the series)


def scalar_series(terms, min_terms=0, max_terms=None):
    """Scalar reference for the series engine: Kahan sums of the terms and
    of their magnitudes under the stopping rule of specfun (_CONSEC_BELOW
    small, falling terms in a row), within max_terms terms (default
    specfun._MAX_TERMS).

    Returns (sum, terms_used, |last term|, sum |t|, converged).
    """
    limit = specfun._MAX_TERMS if max_terms is None else max_terms
    guard = min(min_terms, limit)
    total = comp = pos = pos_comp = last = None
    below = 0
    for n, t in enumerate(terms, start=1):
        if total is None:
            total = comp = pos = pos_comp = t * 0
        y = t - comp
        s = total + y
        comp, total = (s - total) - y, s
        y = abs(t) - pos_comp
        s = pos + y
        pos_comp, pos = (s - pos) - y, s
        falling = last is None or abs(t) <= last
        last = abs(t)
        if n >= guard and abs(t) <= specfun._REL_TOL * abs(total) and falling:
            below += 1
            if below >= specfun._CONSEC_BELOW:
                return total, n, last, pos, True
        else:
            below = 0
        if n >= limit:
            return total, n, last, pos, False
    raise InvalidParameterError("series generator produced no terms")


def legendre_2f1(b):
    """2F1(-m, -m; 1; b) for m = 0, 1, ... by the Legendre recurrence."""
    omb2, opb = (1 - b) * (1 - b), 1 + b
    fm1, fm = b * 0, b * 0 + 1
    m = 0
    while True:
        yield fm
        fm1, fm = fm, ((2 * m + 1) * opb * fm - m * omb2 * fm1) / (m + 1)
        m += 1


def hyp1f1_poly(m: int, x: float) -> float:
    """Confluent hypergeometric 1F1(1 - m; 2; x) for integer m >= 1.

    1F1(1-m; 2; x) = L_{m-1}^{(1)}(x) / m, so (m+1) G_{m+1} = (2m - x) G_m
    - (m-1) G_{m-1} with G_1 = 1, in long double.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidParameterError(f"m must be a positive integer, got {m}")
    x = np.longdouble(x)
    gm1, gm = np.longdouble(0.0), np.longdouble(1.0)
    for j in range(1, m):
        gm1, gm = gm, ((2 * j - x) * gm - (j - 1) * gm1) / (j + 1)
    return float(gm)


def hyp2f1_neg_mm(m: int, b):
    """2F1(-m, -m; 1; b) = sum_j C(m, j)^2 b^j, Kahan-summed in long double;
    all terms positive for b >= 0."""
    t = total = np.longdouble(1.0)
    comp = np.longdouble(0.0)
    for j in range(m):
        r = np.longdouble(m - j) / (j + 1)
        t = t * r * r * b
        y = t - comp
        s = total + y
        comp, total = (s - total) - y, s
    return total


def hyp2f1_poly(m: int, b: float) -> float:
    """Gauss hypergeometric 2F1(-m, -m; 1; b) for integer m >= 0, b in [0, 1]."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"m must be a nonnegative integer, got {m}")
    if not 0.0 <= b <= 1.0:
        raise InvalidParameterError(f"b must lie in [0, 1], got {b}")
    return float(hyp2f1_neg_mm(int(m), np.longdouble(b)))


def hyp2f1_3half(m: int, z: float, max_terms: int | None = None) -> SeriesResult:
    """Gauss hypergeometric 2F1(3/2, 1+m; 2; z) for z <= 0.

    Evaluated through the Pfaff transform 2F1(a, b; c; z) = (1-z)^(-b)
    2F1(c-a, b; c; z/(z-1)) so the series argument lies in [0, 1); every
    transformed term is positive, so there is no cancellation, only slow
    convergence as z -> -inf.  max_terms is the term budget (default
    specfun._MAX_TERMS).
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidParameterError(f"m must be a nonnegative integer, got {m}")
    if z > 0:
        raise InvalidParameterError(f"z must be <= 0, got {z}")
    zb = np.longdouble(z)
    if zb == 0:
        return SeriesResult(1.0, 1, 0.0, 1.0)
    w = zb / (zb - 1)

    def terms():
        t = np.longdouble(1.0)
        j = 0
        while True:
            yield t
            t = t * w * (2 * j + 1) * (j + 1 + m) / ((j + 2) * (j + 1) * 2)
            j += 1

    s, n, last, _, ok = scalar_series(terms(), max_terms=max_terms)
    if not ok:
        raise SeriesDivergenceError(
            f"2F1(3/2, {1 + m}; 2; {float(z)}) did not converge in {n} terms", n
        )
    pref = np.exp(-(1 + m) * np.log1p(-zb))
    return SeriesResult(float(pref * s), n, float(last / abs(s)), 1.0)


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
            lambda t: (1.0 - y * t) ** (-b2), 0.0, 1.0, weight="alg", wvar=(0.5, -0.5),
            epsabs=_APPELL_ABS_TOL / 10, epsrel=1e-13, limit=200,
        )
    else:
        val, err = integrate.quad(
            lambda t: math.sqrt(t) * (1.0 - x * t) ** -0.5 * (1.0 - y * t) ** (-b2),
            0.0, 1.0, epsabs=_APPELL_ABS_TOL / 10, epsrel=1e-13, limit=200,
        )
    if 1.5 * err > _APPELL_ABS_TOL:
        raise QuadratureError(
            f"Appell F1 quadrature reached {1.5 * err:.3e} > {_APPELL_ABS_TOL:.0e}", 1.5 * err
        )
    return 1.5 * val


# ---------------------------------------------------------------------------
# scalar long-double references for the array kernels and series passes


def ive_ladder_scalar(x, nu_max: int):
    """exp(-x) I_nu(x), nu = 0..nu_max, at one x >= 0 in long double: the
    scalar Miller ladder with its small-x power series."""
    LD = np.longdouble
    eps = float(np.finfo(LD).eps)
    xf = float(x)
    if xf == 0.0:
        return [LD(1.0)] + [LD(0.0)] * nu_max
    if xf < 0.5:
        out = []
        half, damp = LD(x) / 2, np.exp(-LD(x))
        h2, fact, powm = half * half, LD(1.0), LD(1.0)
        for m in range(nu_max + 1):
            if m > 0:
                fact, powm = fact * m, powm * half
            term = s = powm / fact
            k = 0
            while True:
                k += 1
                term = term * h2 / (k * (m + k))
                s = s + term
                if abs(term) <= abs(s) * eps or k > 60:
                    break
            out.append(s * damp)
        return out
    start = nu_max + int(math.ceil(math.sqrt(2.6 * max(xf, 1.0) * -math.log(eps)))) + 14
    xb, ip1, ik = LD(x), LD(0.0), LD(1e-12)
    ladder = [LD(0.0)] * (nu_max + 1)
    norm = comp = LD(0.0)
    for k in range(start, 0, -1):
        im1 = ip1 + (2 * k / xb) * ik
        if k - 1 <= nu_max:
            ladder[k - 1] = im1
        y = 2 * ik - comp
        s = norm + y
        comp, norm = (s - norm) - y, s
        ip1, ik = ik, im1
    y = ik - comp
    total = norm + y
    return [v / total for v in ladder]


def _finish(pref, s, n, last, pos):
    sabs = abs(s)
    return (float(pref * s), n, float(last / sabs) if sabs > 0 else math.inf,
            float(pos / sabs) if sabs > 0 else math.inf)


def pdf_pass_scalar(p, r: float):
    """(value, terms_used, trunc, ratio) of the long-double pdf pass at r > 0."""
    LD = np.longdouble
    K, G, s2, rb = LD(p.k), LD(p.gamma), LD(p.sigma2), LD(r)
    g2 = G * G
    b1 = 2 * np.sqrt(K / (2 * s2) / (1 + g2))
    b2 = G * b1
    c = 2 * K * G / (1 + g2)
    nu = 48
    while True:
        iv1, iv2, iv3 = (ive_ladder_scalar(x, nu) for x in (b1 * rb, b2 * rb, c))
        def terms():
            for m in range(nu + 1):
                t = iv1[m] * iv2[m] * iv3[m]
                if m:
                    t = 2 * t
                    if m & 1:
                        t = -t
                yield t

        s, n, last, pos, ok = scalar_series(terms(), max_terms=min(nu + 1, specfun._MAX_TERMS))
        if ok:
            break
        nu = min(2 * nu, specfun._MAX_TERMS)
    pref = rb / s2 * np.exp(-rb * rb / (2 * s2) - K + (b1 + b2) * rb + c)
    return _finish(pref, s, n, last, pos)


def cdf_pass_scalar(p, x):
    """The long-double cdf pass at one x in (0, 600]."""
    from twdp.specfun import term_hump_guard

    LD = np.longdouble
    K, G, xb = LD(p.k), LD(p.gamma), LD(x)
    g2 = G * G
    a = K / (1 + g2)

    def terms():
        cm, gm1, gm = LD(1.0), LD(0.0), LD(1.0)
        for m, leg in enumerate(legendre_2f1(g2)):
            if m == 0:
                h1 = np.expm1(xb) / xb
            else:
                h1 = gm
                gm1, gm = gm, ((2 * m - xb) * gm - (m - 1) * gm1) / (m + 1)
            yield cm * h1 * leg
            cm = cm * (-a) / (m + 1)

    s, n, last, pos, _ = scalar_series(terms(), term_hump_guard(p.k, p.gamma))
    return _finish(xb * np.exp(-xb), s, n, last, pos)


def mgf_pass_scalar(p, gamma0: float, s_arg: float):
    """The long-double series MGF pass at one s <= 0."""
    from twdp.specfun import term_hump_guard

    LD = np.longdouble
    g2 = LD(p.gamma) ** 2
    a = LD(p.k) / (1 + g2)
    den = 1 + LD(p.k) - LD(gamma0) * LD(s_arg)
    q = a * ((1 + LD(p.k)) / den - 1)

    def terms():
        cm = LD(1.0)
        for m, leg in enumerate(legendre_2f1(g2)):
            yield cm * leg
            cm = cm * q / (m + 1)

    s, n, last, pos, _ = scalar_series(terms(), term_hump_guard(p.k, p.gamma))
    return _finish((1 + LD(p.k)) / den, s, n, last, pos)


def asep_pass_scalar(p, sin2_pim: float, gamma0: float):
    """The long-double exact M-PSK error-rate pass at one average SNR."""
    from twdp.specfun import tanh_sinh_rule, term_hump_guard

    LD = np.longdouble
    K, g2 = LD(p.k), LD(p.gamma) ** 2
    a = K / (1 + g2)
    x0, g0 = LD(sin2_pim), LD(gamma0)
    sp = np.sqrt(x0)
    lam, y0_abs = float((1 + K) / (g0 * x0)), float((1 + K) / g0)
    c_bracket = 3 * LD(np.pi) / (2 * sp * x0)
    t, omt, w = tanh_sinh_rule(8)
    g1, g2n = 1 / (1 + LD(lam) * t), 1 / (1 + LD(y0_abs) * t)
    p1 = w * np.sqrt(t) / np.sqrt(omt) * g1
    p2 = w * np.sqrt(t) / np.sqrt(omt + (1 - x0) * t) * g2n

    def terms():
        nonlocal p1, p2
        cm = LD(1.0)
        for m, leg in enumerate(legendre_2f1(g2)):
            t1, f1 = LD(2.0) / LD(np.pi) * p1.sum(), LD(1.5) * p2.sum()
            yield cm * leg * (c_bracket * t1 - f1)
            p1, p2 = p1 * g1, p2 * g2n
            cm = cm * (-a) / (m + 1)

    s, n, last, pos, _ = scalar_series(terms(), term_hump_guard(p.k, p.gamma))
    return _finish(sp * (1 + K) / (3 * LD(np.pi) * g0), s, n, last, pos)


def tanh_sinh_mp_full(level: int):
    """(t, 1-t, w) of the mpmath tanh-sinh rule at the current precision,
    every node k in [-kmax, kmax] computed on its own (no mirroring)."""
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
    return t, omt, w
