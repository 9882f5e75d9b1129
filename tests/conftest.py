"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's own evaluation routes:
closed forms, brute-force series, and direct numerical integrals only.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate, special, stats

from twdp import (
    InvalidParameterError,
    QuadratureError,
    SeriesDivergenceError,
    SeriesResult,
    TwdpParams,
)
from twdp import mcsim, specfun

# (K, Gamma) sets used for every figure-style check
FIGURE_SETS = [(0.0, 0.0), (8.0, 0.0), (8.0, 0.5), (14.0, 1.0)]

# property tests draw the same examples on every machine and run untimed:
# a draw that reaches mpmath may take a second
settings.register_profile("twdp", deadline=None, derandomize=True)
settings.load_profile("twdp")


@pytest.fixture(scope="session")
def figure_params():
    return [TwdpParams(k=k, gamma=g) for k, g in FIGURE_SETS]


@pytest.fixture
def rel_tol_1e6(monkeypatch):
    """The series stopping rule at a proven 1e-6 relative remainder, the
    tail the paper's truncation counts refer to."""
    monkeypatch.setattr(specfun, "_STOP_TOL", 1e-6)


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
    """M-PSK error probability over Rician fading by direct MGF integration.

    At low gamma0 the integrand climbs from 0 to about 1 within a layer of
    width w = sqrt(sin^2(pi/M) gamma0 / (1+K)) at theta = 0; geometric
    breakpoints w 8^j lead quad there, as in asep_quadrature.
    """
    c = math.sin(math.pi / m_order) ** 2

    def f(theta):
        st2 = math.sin(theta) ** 2
        if st2 <= 0.0:
            return 0.0
        s = -c / st2
        return rician_mgf(k, gamma0, s) if math.isfinite(s) else 0.0

    upper = math.pi - math.pi / m_order
    w = math.sqrt(c) * math.sqrt(gamma0 / (1.0 + k))
    points = []
    if 0.0 < w < 0.01 * upper:
        while w < upper / 2:
            points.append(w)
            w *= 8.0
    v, _ = integrate.quad(f, 0.0, upper, epsabs=1e-14, epsrel=1e-12,
                          limit=200 + len(points), points=points or None)
    return v / math.pi


# ---------------------------------------------------------------------------
# phase-average oracle for the envelope pdf and cdf
#
# Conditioned on the phase difference theta of its two rays, TWDP fading is
# Rician with specular amplitude s(theta)^2 = V1^2 + V2^2 + 2 V1 V2 cos theta
# (Durgin, Rappaport & de Wolf, IEEE Trans. Commun. 50(6), 2002).  The pdf
# and cdf are averages over theta in [0, pi] of Rician forms whose terms are
# all positive, so the average keeps full relative accuracy in both tails.
# The integrand is periodic and analytic in theta, so the trapezoid rule
# converges geometrically; every average is taken at two node counts that
# must agree.  At Gamma = 0 or K = 0 there is nothing to average: the oracle
# is the Rician (Rayleigh) form itself.  The same construction as
# bench/oracle.py, which must not import twdp.

_THETA_NODES = 1024
_THETA_AGREE = 1e-13


def _theta_average(rician, p, r) -> np.ndarray:
    """Mean over theta of rician(r, s(theta)) at every r, for r of shape
    (n, 1) and s of shape (1, m)."""
    r = np.asarray(r, dtype=float).ravel()[:, None]
    g2 = 1.0 + p.gamma * p.gamma
    theta = np.linspace(0.0, math.pi, _THETA_NODES + 1)
    if p.gamma == 0.0 or p.k == 0.0:
        theta = theta[:1]
    s = np.sqrt(2.0 * p.sigma2 * p.k * (g2 + 2.0 * p.gamma * np.cos(theta)) / g2)
    vals = rician(r, s[None, :])
    if theta.size == 1:
        return vals[:, 0]
    w = np.ones(theta.size)
    w[0] = w[-1] = 0.5
    fine = vals @ w / _THETA_NODES
    wc = np.ones((theta.size + 1) // 2)
    wc[0] = wc[-1] = 0.5
    coarse = vals[:, ::2] @ wc / (_THETA_NODES // 2)
    bad = np.abs(fine - coarse) > _THETA_AGREE * np.abs(fine)
    if bad.any():
        raise ArithmeticError(f"theta average not converged at r={r[bad][0]} for {p}")
    return fine


def phase_average_pdf(p, r) -> np.ndarray:
    """Envelope density at every r: the theta average of the scaled Rician
    density (r / sigma2) exp(-(r - s)^2 / (2 sigma2)) i0e(r s / sigma2)."""
    def rician(r, s):
        return (r / p.sigma2 * np.exp(-((r - s) ** 2) / (2.0 * p.sigma2))
                * special.i0e(r * s / p.sigma2))

    return _theta_average(rician, p, r)


def phase_average_cdf(p, r) -> np.ndarray:
    """Envelope distribution function at every r: the theta average of the
    Rician distribution function ncx2.cdf(r^2 / sigma2; 2, s^2 / sigma2)."""
    def rician(r, s):
        # scipy's ncx2 misses by 1.5e-4 at a subnormal noncentrality, whose
        # true effect on the cdf is below 1e-300 relative
        nc = s * s / p.sigma2
        return stats.ncx2.cdf(r * r / p.sigma2, 2, np.where(nc < np.finfo(float).tiny, 0.0, nc))

    return _theta_average(rician, p, r)


@functools.cache
def phase_average_pdf_mp(p, r: float, dps: int) -> float:
    """Envelope density at one r: the theta average of the Rician density
    (r/sigma2) exp(-(r^2 + nu^2)/(2 sigma2)) I_0(r nu/sigma2), nu(theta)^2 =
    2 sigma2 K (1 + Gamma^2 + 2 Gamma cos theta)/(1 + Gamma^2), by mpmath
    Gauss-Legendre quadrature at dps digits on 32 equal subintervals; the
    integrand is positive and analytic.  (mpmath's default tanh-sinh rule
    missed by 3.7e-7 at K = 14, Gamma = 1, r/sqrt(Omega) = 7.)"""
    with mp.workdps(dps):
        k, g, s2, r = (mp.mpf(float(v)) for v in (p.k, p.gamma, p.sigma2, r))
        g2 = 1 + g * g

        def rician(theta):
            nu2 = 2 * s2 * k * (g2 + 2 * g * mp.cos(theta)) / g2
            return r / s2 * mp.exp(-(r * r + nu2) / (2 * s2)) * mp.besseli(0, r * mp.sqrt(nu2) / s2)

        return float(mp.quad(rician, mp.linspace(0, mp.pi, 33), method="gauss-legendre") / mp.pi)


def mgf_mp(p, gamma0, s, dps: int = 30):
    """SNR MGF in closed form, (1+K)/den exp(K u) I_0(2 Gamma K |u|/(1+Gamma^2)),
    u = g0 s/den, den = 1+K - g0 s, in mpmath at dps digits."""
    with mp.workdps(dps):
        k, g = mp.mpf(p.k), mp.mpf(p.gamma)
        den = 1 + k - mp.mpf(gamma0) * s
        u = mp.mpf(gamma0) * s / den
        return (1 + k) / den * mp.exp(k * u) * mp.besseli(0, 2 * g * k * abs(u) / (1 + g * g))


def asep_oracle(p, m_order: int, gamma0: float) -> float:
    """M-PSK symbol error probability, (1/pi) int_0^{pi-pi/M} M(-sin^2(pi/M)/
    sin^2 phi) dphi, with the closed-form MGF assembled from scipy's i0e (no
    absolute tolerance, unlike asep_quadrature, so tiny values keep their
    relative accuracy).  Breakpoints: asep_quadrature's geometric ones into
    the layer at phi = 0 at low SNR, and phi = pi/2, where the integrand
    peaks sharply at high SNR and large K."""
    k, g, c = p.k, p.gamma, math.sin(math.pi / m_order) ** 2
    g2 = 1.0 + g * g

    def integrand(phi):
        st2 = math.sin(phi) ** 2
        if st2 == 0.0:
            return 0.0
        den = 1.0 + k + gamma0 * c / st2
        au = gamma0 * c / st2 / den  # |u|
        return (1.0 + k) / den * math.exp(-k * au * (1.0 - g) ** 2 / g2) * float(
            special.i0e(2.0 * g * k * au / g2))

    upper = math.pi - math.pi / m_order
    w = math.sqrt(c * gamma0 / (1.0 + k))
    points = [math.pi / 2] if m_order > 2 else []
    while w < upper / 2:
        points.append(w)
        w *= 8.0
    v, err = integrate.quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400,
                            points=sorted(points) or None)
    if not err <= 1e-12 * v:
        raise ArithmeticError(f"error-rate oracle reached only {err:.1e} on {v:.6e}")
    return v / math.pi


def rician_cdf_mp(k: float, sigma2: float, r: float) -> float:
    """Rician distribution function 1 - Q_1(sqrt(2K), r/sigma) as its
    defining integral from 0, int_0^r (t/sigma2) exp(-(t^2 + nu^2) /
    (2 sigma2)) I_0(t nu / sigma2) dt with nu^2 = 2 sigma2 K, in mpmath at
    30 digits; the integrand is positive."""
    with mp.workdps(30):
        s2 = mp.mpf(sigma2)
        nu = mp.sqrt(2 * s2 * k)
        return float(mp.quad(
            lambda t: t / s2 * mp.exp(-(t * t + nu * nu) / (2 * s2)) * mp.besseli(0, t * nu / s2),
            [0, r]))


def identity_rhs_mp(a: float, b: float) -> float:
    """exp(a + a b) I_0(2 a sqrt(b)), the right side of the identity
    sum_m a^m/m! 2F1(-m,-m;1;b) = exp(a+ab) I_0(2a sqrt b), in mpmath at
    30 digits."""
    with mp.workdps(30):
        a, b = mp.mpf(a), mp.mpf(b)
        return float(mp.exp(a + a * b) * mp.besseli(0, 2 * a * mp.sqrt(b)))


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


def scalar_series(terms, max_terms=None):
    """Scalar reference for the series engine: Kahan sums of the terms and
    of their magnitudes under the stopping rule of specfun, within max_terms
    terms (default specfun._MAX_TERMS).  terms yields pairs (t_m, rest_m),
    rest_m a bound on the magnitude of the sum of the terms after t_m; a sum
    stops once rest_m < specfun._STOP_TOL |sum|, and one that is not finite
    did not converge.

    Returns (sum, terms_used, remainder bound, sum |t|, converged).
    """
    limit = specfun._MAX_TERMS if max_terms is None else max_terms
    total = comp = pos = pos_comp = None
    for n, (t, rest) in enumerate(terms, start=1):
        if total is None:
            total = comp = pos = pos_comp = t * 0
        y = t - comp
        s = total + y
        comp, total = (s - total) - y, s
        y = abs(t) - pos_comp
        s = pos + y
        pos_comp, pos = (s - pos) - y, s
        if rest < abs(total) * specfun._STOP_TOL:
            return total, n, rest, pos, abs(total) < math.inf
        if n >= limit:
            return total, n, rest, pos, False
    raise InvalidParameterError("series generator produced no terms")


def geometric_rest(t, rho):
    """specfun._geometric_rest at one point: t rho/(1 - rho) where rho < 1,
    else inf."""
    return t * rho / (1 - rho) if rho < 1 else math.inf


def coef_rest(p, u, bound, cf, m):
    """The remainder bound of specfun.coef_series after order m at one
    point: bound on the later factors, cf = |c_m F_m|."""
    return geometric_rest(bound * cf, np.longdouble(specfun.k_top(p.k, p.gamma)) * abs(u) / (m + 1))


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


def hyp2f1_3half(m: int, z: float, max_terms: int = 2000) -> SeriesResult:
    """Gauss hypergeometric 2F1(3/2, 1+m; 2; z) for z <= 0.

    Evaluated through the Pfaff transform 2F1(a, b; c; z) = (1-z)^(-b)
    2F1(c-a, b; c; z/(z-1)) so the series argument lies in [0, 1); every
    transformed term is positive, so there is no cancellation, only slow
    convergence as z -> -inf.  max_terms is the term budget: a stop within
    a long double's rounding takes 578 terms at z = -10, m = 5.
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
        # the ratio of terms j+1 and j, w (2j+1)(j+1+m) / (2 (j+2)(j+1)), is
        # at most w max(1, (j+1+m)/(j+2)) from order j on
        t = np.longdouble(1.0)
        j = 0
        while True:
            yield t, geometric_rest(t, w * max(1, np.longdouble(j + 1 + m) / (j + 2)))
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


def to_mpf(x):
    """A long double (or float) as an mpf, exactly."""
    man, exp = np.frexp(np.longdouble(x))
    return mp.mpf((int(np.ldexp(man, 64)), int(exp) - 64))


def ive_ladder_scalar(x, nu_max: int):
    """exp(-x) I_nu(x), nu = 0..nu_max, at one x >= 0 in long double: the
    scalar Miller loop over the ratios q_k = I_k/I_(k-1) and their tail sums."""
    LD = np.longdouble
    eps = float(np.finfo(LD).eps)
    start = nu_max + int(math.ceil(math.sqrt(2.6 * max(float(x), 1.0) * -math.log(eps)))) + 14
    xb, q, tail = LD(x), LD(0.0), LD(0.0)
    ratios = [LD(1.0)] * (nu_max + 1)
    for k in range(start, 0, -1):
        q = xb / (2 * k + xb * q)
        tail = q * (1 + tail)
        if k <= nu_max:
            ratios[k] = q
    out = [1 / (1 + 2 * tail)]
    for q in ratios[1:]:
        out.append(out[-1] * q)
    return out


def paper_pdf_pass(p, r):
    """(terms_used, trunc) of the paper's pdf series at the envelope values
    r: its long-double pass, whatever tier the public result then takes."""
    from twdp.dist import _pdf_pass
    from twdp.specfun import Pass

    r = np.asarray(r, dtype=float)
    _, _, n, trunc, _, converged = _pdf_pass(p, r, Pass("longdouble", np.arange(len(r))))
    assert converged.all()
    return n, trunc


def _finish(pref, s, n, last, pos):
    sabs = abs(s)
    return (float(pref * s), n, float(last / sabs) if sabs > 0 else math.inf,
            float(pos / sabs) if sabs > 0 else math.inf)


def pdf_pass_scalar(p, r: float):
    """(value, terms_used, trunc, ratio, converged) of the long-double pdf
    pass at r > 0: at most 49 terms, on 48-order ladders."""
    LD = np.longdouble
    K, G, s2, rb = LD(p.k), LD(p.gamma), LD(p.sigma2), LD(r)
    g2 = G * G
    b1 = 2 * np.sqrt(K / (2 * s2) / (1 + g2))
    b2 = G * b1
    c = 2 * K * G / (1 + g2)
    nu = 48
    iv1, iv2, iv3 = (ive_ladder_scalar(x, nu) for x in (b1 * rb, b2 * rb, c))

    def terms():
        for m in range(nu + 1):
            t = iv1[m] * iv2[m] * iv3[m]
            if m:
                t = 2 * t
                if m & 1:
                    t = -t
            a = abs(t)
            if m == 0:
                yield t, math.inf
            else:
                yield t, geometric_rest(a, a / max(last, np.finfo(np.longdouble).smallest_normal))
            last = 2 * a if m == 0 else a

    s, n, last, pos, ok = scalar_series(terms(), max_terms=nu + 1)
    pref = rb / s2 * np.exp(-rb * rb / (2 * s2) - K + (b1 + b2) * rb + c)
    return (*_finish(pref, s, n, last, pos), ok)


def cdf_pass_scalar(p, x):
    """The long-double cdf pass at one x in (0, 600]."""
    LD = np.longdouble
    K, G, xb = LD(p.k), LD(p.gamma), LD(x)
    g2 = G * G
    a = K / (1 + g2)
    half = np.exp(xb / 2)

    def terms():
        cm, gm1, gm = LD(1.0), LD(0.0), LD(1.0)
        for m, leg in enumerate(legendre_2f1(g2)):
            if m == 0:
                h1 = np.expm1(xb) / xb
            else:
                h1 = gm
                gm1, gm = gm, ((2 * m - xb) * gm - (m - 1) * gm1) / (m + 1)
            yield cm * h1 * leg, coef_rest(p, -1, half, abs(cm * leg), m)
            cm = cm * (-a) / (m + 1)

    s, n, last, pos, _ = scalar_series(terms())
    return _finish(xb * np.exp(-xb), s, n, last, pos)


def mgf_pass_scalar(p, gamma0: float, s_arg: float):
    """The long-double series MGF pass at one s <= 0."""
    LD = np.longdouble
    g2 = LD(p.gamma) ** 2
    a = LD(p.k) / (1 + g2)
    rho, s = (1 + LD(p.k)) / LD(gamma0), LD(s_arg)
    u = s / (rho - s)
    q = a * u

    def terms():
        cm = LD(1.0)
        for m, leg in enumerate(legendre_2f1(g2)):
            yield cm * leg, coef_rest(p, u, 1, abs(cm * leg), m)
            cm = cm * q / (m + 1)

    total, n, last, pos, _ = scalar_series(terms())
    return _finish(rho / (rho - s), total, n, last, pos)


def bracket_row(x, y, v, v_next, b):
    """The row values V_n = c J_n(x, y), n = 1, 2, ..., of one of the paper's
    bracket factors, J_n(x, y) = int_0^1 sqrt(t) (1 - x t)^(-1/2) (1 + y
    t)^(-n) dt: the 2F1 one is c = 2/pi at x = 1, y = rho/sin^2(pi/M), the
    F1 one c = 3/2 at x = sin^2(pi/M), y = rho.  Integrating d/dt [t^(3/2)
    (1-xt)^(1/2) (1+yt)^(-n)] gives a three-term recurrence, run from the
    seeds V_1, V_2 and b = b_2 = c sqrt(1-x) (1+y)^(-2) on the differences
    D_n = V_n - V_{n+1}, in the arithmetic of its arguments."""
    g, q, r = 1 / (1 + y), y / (x + y), x / (x + y)
    d, n = v * 0, 2
    while True:
        yield v
        d = (q * (1.5 * v_next - b) + (n - 2) * (r * d)) / n
        v, v_next = v_next, v_next - d
        b, n = b * g, n + 1


def asep_pass_scalar(p, sin2_pim: float, gamma0: float):
    """The long-double exact M-PSK error-rate pass at one average SNR, its
    factors B_m from the recurrence of asep._bracket_family run one point
    at a time."""
    from twdp.asep import _angle_seeds
    from twdp.specfun import _PI

    LD = np.longdouble
    K, g2 = LD(p.k), LD(p.gamma) ** 2
    a = K / (1 + g2)
    x0 = LD(sin2_pim)
    g = x0 / ((1 + K) / LD(gamma0))
    a_n, b_n, cot = _angle_seeds(sin2_pim, g)
    beta, kappa, sc = 1 + g, g / (x0 + g), x0 * cot

    def terms():
        nonlocal a_n, b_n
        cm, kn = LD(1.0), LD(1.0)
        for m, leg in enumerate(legendre_2f1(g2)):
            if m:
                kn = kn * kappa
                b_n = (a_n + 2 * g * (m - 1) * b_n + kn * sc) / (2 * m * beta)
                a_n = a_n - b_n
            yield b_n * cm * leg, coef_rest(p, -1, b_n, abs(cm * leg), m)
            cm = cm * (-a) / (m + 1)

    s, n, last, pos, _ = scalar_series(terms())
    return _finish(1 / _PI, s, n, last, pos)


# ---------------------------------------------------------------------------
# the paper's series summed in mpmath, where its cancellation costs no digits
# that matter


def cdf_series_mp(p, r: float, dps: int = 50) -> float:
    """Envelope distribution function at one r > 0: the paper's cdf series,
    the terms of cdf_pass_scalar, summed in mpmath at dps digits under the
    stopping rule of specfun and its remainder bound."""
    with mp.workdps(dps):
        g2 = mp.mpf(p.gamma) ** 2
        a = mp.mpf(p.k) / (1 + g2)
        kt = mp.mpf(p.k) * (1 + mp.mpf(p.gamma)) ** 2 / (1 + g2)
        x = mp.mpf(r) ** 2 / (2 * mp.mpf(p.sigma2))
        half = mp.exp(x / 2)

        def terms():
            cm, gm1, gm = mp.mpf(1), mp.mpf(0), mp.mpf(1)
            for m, leg in enumerate(legendre_2f1(g2)):
                if m == 0:
                    h1 = mp.expm1(x) / x
                else:
                    h1 = gm
                    gm1, gm = gm, ((2 * m - x) * gm - (m - 1) * gm1) / (m + 1)
                yield cm * h1 * leg, geometric_rest(half * abs(cm * leg), kt / (m + 1))
                cm = cm * (-a) / (m + 1)

        s, *_, ok = scalar_series(terms())
        assert ok
        return float(x * mp.exp(-x) * s)


def asep_series_mp(p, m_order: int, gamma0: float, dps: int = 50) -> float:
    """M-PSK symbol error probability: the paper's exact series in its own
    2F1/F1 form, the sum of asep_pass_scalar without its angle-integral
    factors, summed in mpmath at dps digits under the stopping rule of
    specfun and its remainder bound.  The bracket factors run the
    recurrence of bracket_row from their closed-form seeds, taken with 30
    more digits for the cancellation in J_1 and J_2 at small y."""
    from twdp.asep import ModulationSpec

    sin2_pim = ModulationSpec(m_order).sin2_pim
    with mp.workdps(dps):
        K, g2 = mp.mpf(p.k), mp.mpf(p.gamma) ** 2
        a = K / (1 + g2)
        kt = K * (1 + mp.mpf(p.gamma)) ** 2 / (1 + g2)
        x0, g0 = mp.mpf(sin2_pim), mp.mpf(gamma0)
        sp = mp.sqrt(x0)
        lam, y = (1 + K) / (g0 * x0), (1 + K) / g0
        c_bracket = 3 * mp.pi / (2 * sp * x0)
        s = mp.sqrt(1 + lam)
        f2f1 = bracket_row(mp.mpf(1), lam, 2 / (s * (1 + s)), 1 / s**3, mp.mpf(0))
        if sin2_pim < 1.0:
            with mp.workdps(dps + 30):
                b = x0 + y
                f = mp.asin(mp.sqrt(b / (1 + y))) / mp.sqrt(b)
                v = 3 * (mp.asin(sp) / sp - f) / y
                v_next = (f - mp.sqrt(1 - x0) / (1 + y)) * 1.5 / b
            f1 = bracket_row(x0, y, +v, +v_next, 1.5 * mp.sqrt(1 - x0) / (1 + y) ** 2)

        def terms():
            cm = mp.mpf(1)
            for m, leg in enumerate(legendre_2f1(g2)):
                t1 = next(f2f1)
                f1_m = next(f1) if sin2_pim < 1.0 else 3 * mp.pi / 4 * t1
                t1 = c_bracket * t1
                yield ((t1 - f1_m) * cm * leg,
                       geometric_rest(max(t1, f1_m) * abs(cm * leg), kt / (m + 1)))
                cm = cm * (-a) / (m + 1)

        total, *_, ok = scalar_series(terms())
        assert ok
        return float(sp * (1 + K) / (3 * mp.pi * g0) * total)


# ---------------------------------------------------------------------------
# direct-construction envelope sampler and histogram


def _two_phase_envelope_block(p, n: int, rng) -> np.ndarray:
    """|V1 e^{j Phi1} + V2 e^{j Phi2} + n_d| straight from the channel
    construction: both ray phases uniform, then the diffuse (re, im) parts."""
    v1, v2 = p.v1, p.v2
    sigma = math.sqrt(p.sigma2)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
    noise = rng.standard_normal(size=(2, n)) * sigma
    re = v1 * np.cos(phases[0]) + v2 * np.cos(phases[1]) + noise[0]
    im = v1 * np.sin(phases[0]) + v2 * np.sin(phases[1]) + noise[1]
    return np.hypot(re, im)


def sample_envelope(p, cfg) -> np.ndarray:
    """cfg.n_samples envelope values, in mcsim's blocks and per-block
    streams; deterministic in (seed, n_samples) for any worker count."""
    n_blocks = (cfg.n_samples + mcsim.BLOCK - 1) // mcsim.BLOCK

    def one(i: int) -> np.ndarray:
        size = min(mcsim.BLOCK, cfg.n_samples - i * mcsim.BLOCK)
        return _two_phase_envelope_block(p, size, mcsim._block_rng(cfg.seed, i))

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        parts = list(pool.map(one, range(n_blocks)))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram over [0, max sample]."""

    edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray


def histogram(samples, n_bins: int = 20) -> Histogram:
    """Equal-width histogram of n_bins bins over [0, max(samples)]: the raw
    per-bin counts and the density, which integrates to one."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidParameterError("histogram requires at least one sample")
    if n_bins < 1:
        raise InvalidParameterError(f"n_bins must be >= 1, got {n_bins}")
    top = float(arr.max())
    if top <= 0.0:
        top = 1.0
    counts, edges = np.histogram(arr, bins=n_bins, range=(0.0, top))
    density = counts / (arr.size * (edges[1] - edges[0]))
    return Histogram(edges=edges, density=density, counts=counts)
