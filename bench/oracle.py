"""Reference values for the TWDP curves, computed without the twdp package.

Conditioned on the phase difference theta of its two specular rays, TWDP
fading is Rician with specular amplitude

    s(theta)^2 = V1^2 + V2^2 + 2 V1 V2 cos(theta)

(Durgin, Rappaport & de Wolf, IEEE Trans. Commun. 50(6), 2002; Rao et al.,
IEEE TWC 14(5), 2015).  The envelope PDF and CDF are therefore averages over
theta in [0, pi] of Rician forms whose terms are all positive, so the average
keeps full relative accuracy in both tails.  The integrand is periodic and
analytic in theta, and the trapezoid rule on [0, pi] (the even periodic
extension) converges geometrically; every average is taken at two node
counts and must agree before it is returned.

The SNR MGF uses its closed form with scipy's scaled Bessel function, and
the M-PSK symbol error probability integrates that MGF by adaptive
quadrature.  Only numpy and scipy are used here; mpmath appears in the
oracle's own tests.

Parameters follow the package's conventions: K = (V1^2 + V2^2) / (2 sigma2),
Gamma = V2 / V1, and sigma2 defaults to 1 / (2 (1 + K)) so that the total
power Omega = 2 sigma2 (1 + K) is 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

# trapezoid nodes on [0, pi]; the average is also taken on every second node
# and the two must agree to _THETA_AGREE relative
_THETA_NODES = 1024
_THETA_AGREE = 1e-13
_ASEP_REL_TOL = 1e-13


class OracleError(ArithmeticError):
    """A reference value could not be computed to its stated accuracy."""


def default_sigma2(k: float) -> float:
    return 1.0 / (2.0 * (1.0 + k))


def _specular_sq(k: float, gamma: float, sigma2: float, theta: np.ndarray) -> np.ndarray:
    """s(theta)^2 = 2 sigma2 K (1 + Gamma^2 + 2 Gamma cos theta) / (1 + Gamma^2)."""
    return 2.0 * sigma2 * k * (1.0 + gamma * gamma + 2.0 * gamma * np.cos(theta)) / (
        1.0 + gamma * gamma
    )


def _theta_average(rician, k: float, gamma: float, sigma2: float, x: np.ndarray) -> np.ndarray:
    """Mean over theta of rician(x, s(theta)), checked at two node counts.

    rician takes x of shape (n, 1) and s of shape (1, m) and returns (n, m).
    """
    x = np.asarray(x, dtype=float).ravel()
    if gamma == 0.0 or k == 0.0:
        s = np.sqrt(_specular_sq(k, gamma, sigma2, np.zeros(1)))
        return rician(x[:, None], s[None, :])[:, 0]
    theta = np.linspace(0.0, math.pi, _THETA_NODES + 1)
    vals = rician(x[:, None], np.sqrt(_specular_sq(k, gamma, sigma2, theta))[None, :])
    w = np.ones(theta.size)
    w[0] = w[-1] = 0.5
    fine = vals @ w / _THETA_NODES
    wc = np.ones((theta.size + 1) // 2)
    wc[0] = wc[-1] = 0.5
    coarse = vals[:, ::2] @ wc / (_THETA_NODES // 2)
    bad = np.abs(fine - coarse) > _THETA_AGREE * np.abs(fine)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise OracleError(
            f"theta average not converged at x={x[i]!r} (K={k}, Gamma={gamma}): "
            f"{fine[i]!r} vs {coarse[i]!r}"
        )
    return fine


def pdf(k: float, gamma: float, r, sigma2: float | None = None) -> np.ndarray:
    """TWDP envelope density f_R(r), as the theta average of Rician densities.

    Rician density in scaled form:
    (r / sigma2) exp(-(r - s)^2 / (2 sigma2)) i0e(r s / sigma2).
    """
    sigma2 = default_sigma2(k) if sigma2 is None else sigma2

    def rician(r, s):
        return r / sigma2 * np.exp(-((r - s) ** 2) / (2.0 * sigma2)) * special.i0e(r * s / sigma2)

    return _theta_average(rician, k, gamma, sigma2, r)


def cdf(k: float, gamma: float, r, sigma2: float | None = None) -> np.ndarray:
    """TWDP envelope distribution function F_R(r), as the theta average of
    Rician distribution functions ncx2.cdf(r^2 / sigma2; 2, s^2 / sigma2)."""
    sigma2 = default_sigma2(k) if sigma2 is None else sigma2

    def rician(r, s):
        return stats.ncx2.cdf(r * r / sigma2, 2, s * s / sigma2)

    return _theta_average(rician, k, gamma, sigma2, r)


def mgf(k: float, gamma: float, gamma0: float, s) -> np.ndarray:
    """SNR MGF for s <= 0 in closed form:

    M(s) = (1+K)/(1+K - s g0) exp(K u) I0(2 Gamma K |u| / (1+Gamma^2)),
    u = g0 s / (1+K - s g0), assembled as exp(-K |u| (1-Gamma)^2/(1+Gamma^2)) i0e(.).
    """
    s = np.asarray(s, dtype=float)
    den = 1.0 + k - gamma0 * s
    au = -gamma0 * s / den  # |u|
    g2 = 1.0 + gamma * gamma
    xarg = 2.0 * gamma * k * au / g2
    return (1.0 + k) / den * np.exp(-k * au * (1.0 - gamma) ** 2 / g2) * special.i0e(xarg)


def asep(k: float, gamma: float, m_order: int, gamma0: float) -> float:
    """Average M-PSK symbol error probability,
    (1/pi) int_0^{pi - pi/M} M(-sin^2(pi/M) / sin^2 phi) dphi."""
    c = math.sin(math.pi / m_order) ** 2

    def integrand(phi: float) -> float:
        sp = math.sin(phi)
        if sp == 0.0:
            return 0.0
        return float(mgf(k, gamma, gamma0, -c / (sp * sp)))

    val, err = integrate.quad(
        integrand,
        0.0,
        math.pi - math.pi / m_order,
        epsabs=0.0,
        epsrel=_ASEP_REL_TOL,
        limit=400,
        full_output=1,  # no warning; the error estimate is checked below
    )[:2]
    if not err <= 1e-12 * abs(val):
        raise OracleError(
            f"asep quadrature error {err:.2e} on {val:.6e} (K={k}, Gamma={gamma}, "
            f"M={m_order}, gamma0={gamma0})"
        )
    return val / math.pi


def asep_rayleigh(m_order: int, gamma0: float) -> float:
    """Rayleigh M-PSK symbol error probability (Simon & Alouini),

    (M-1)/M - (a/pi) (pi/2 + atan(a cot(pi/M))),  a = sqrt(g gamma0 / (1 + g gamma0)),

    with g = sin^2(pi/M), rewritten without cancellation as
    (1-a)/2 + (1/pi) [atan((1-a) c / (1 + a c^2)) + (1-a) atan(a c)], c = cot(pi/M).
    """
    g = math.sin(math.pi / m_order) ** 2
    gg = g * gamma0
    a = math.sqrt(gg / (1.0 + gg))
    one_m_a = 1.0 / ((1.0 + gg) * (1.0 + a))
    c = 0.0 if m_order == 2 else math.cos(math.pi / m_order) / math.sin(math.pi / m_order)
    return 0.5 * one_m_a + (
        math.atan(one_m_a * c / (1.0 + a * c * c)) + one_m_a * math.atan(a * c)
    ) / math.pi


def asep_asymptote(k: float, gamma: float, m_order: int, gamma0: float) -> float:
    """High-SNR form (1+K)/(2 pi g0) (pi - pi/M + sin(2 pi/M)/2) / sin^2(pi/M)
    e^{-K} I0(2 Gamma K / (1+Gamma^2))."""
    g2 = 1.0 + gamma * gamma
    xarg = 2.0 * gamma * k / g2
    angle = math.pi - math.pi / m_order + 0.5 * math.sin(2.0 * math.pi / m_order)
    scale = (1.0 + k) / (2.0 * math.pi * gamma0 * math.sin(math.pi / m_order) ** 2)
    return scale * angle * math.exp(-k * (1.0 - gamma) ** 2 / g2) * float(special.i0e(xarg))
