"""Exact TWDP envelope PDF/CDF and the SNR-domain CDF.

The envelope density is the triple-Bessel series

    f_R(r) = (r/sigma^2) exp(-r^2/(2 sigma^2) - K)
             sum_m eps_m (-1)^m I_m(b1 r) I_m(b2 r) I_m(c)

with b1 = 2 sqrt(K / (2 sigma^2 (1+Gamma^2))), b2 = Gamma b1,
c = 2 K Gamma / (1+Gamma^2), eps_0 = 1, eps_m = 2.  The Bessel factors are
assembled from scaled functions ive_m = e^{-x} I_m(x); the three linear
exponents join the prefactor so exactly one exponentiation happens.

The distribution function is the algebraic series

    F_R(r) = x e^{-x} sum_m ((-1)^m / m!) (K/(1+Gamma^2))^m
             1F1(1-m; 2; x) 2F1(-m, -m; 1; Gamma^2),      x = r^2/(2 sigma^2)

and the SNR CDF is the same series at x = gamma rho, rho = (1+K)/gamma0
(specfun.snr_rho), as the instantaneous SNR is gamma = r^2 Es/N0 and its
average, the linear gamma0 of cdf_snr, is Omega Es/N0 = 2 sigma^2 (1+K) Es/N0.

Rician (Gamma = 0) and Rayleigh (K = 0) fading are special cases of both
series.

Both series alternate and cancel heavily when K (1+Gamma)^2/(1+Gamma^2) is
large; sums run on 80-bit long doubles, and a point whose recorded
cancellation would push the result past its accuracy target, ~1e-11
relative however small the value, tails included, or whose series does not
converge within its term budget, 49 terms for the density (one 48-order
Bessel ladder over its arguments) and 500 for the distribution function, is
summed again as a positive mixture (specfun.mixture_series):

    f_R(r) = (r/sigma^2) sum_j w_j pi_j(x),    F_R(r) = sum_{j>=1} W_(j-1) pi_j(x),

with pi_j(x) = e^{-x} x^j/j!, the mixing weights w_j and their running sums
W_j.  The CDF is 1 wherever its complement is below 2^-53: given the phases
the envelope is Rician with specular power at most K' = K (1+Gamma)^2 /
(1+Gamma^2) (in units of 2 sigma^2), and Q1(a, b) <= exp(-(b-a)^2/2), b > a,
bounds the complement by exp(-(sqrt(x) - sqrt(K'))^2).  Likewise I_0(y) <=
e^y bounds the density by (r/sigma^2) exp(-d^2), d the distance of sqrt(x)
from [sqrt(a), sqrt(K')], a = K (1-Gamma)^2/(1+Gamma^2): the density is 0
where that is below 2^-1076.  A point whose prefactor or e^x (cdf) overflows
long double, or with a Bessel argument past 1e7, raises SeriesDivergenceError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, SeriesDivergenceError
from .params import TwdpParams
from .specfun import (
    SeriesGrid,
    SeriesResult,
    _IVE_MAX_X,
    _check_gamma0,
    _geometric_rest,
    _ive_ladder,
    _grid,
    _pass_result,
    _sum_series,
    coef_series,
    k_top,
    mixture_series,
    run_with_rescue,
    running_product,
    snr_rho,
)

_LD = np.longdouble
# the ladder orders of the pdf pass, one term each: a point the pass has not
# stopped within them reruns in the mixture
_PDF_ORDERS = 48
_TINY = np.finfo(_LD).smallest_normal  # not subnormal: those are slow on x87


# ----------------------------------------------------------------------------
# envelope PDF


def _pdf_args(p: TwdpParams, rb):
    """(b1 r, b2 r, c, prefactor, Rician bound) of the pdf series at the
    long-double values rb.  Both bound the density (|sum| <= sum_m eps_m
    ive_m(b1 r) = 1); the Rician bound (module docstring) is never looser."""
    K = _LD(p.k)
    G = _LD(p.gamma)
    s2 = _LD(p.sigma2)
    g2 = G * G
    b1 = 2 * np.sqrt(K / (2 * s2) / (1 + g2))
    b2 = G * b1
    c = 2 * K * G / (1 + g2)
    expo = -rb * rb / (2 * s2) - K + rb * (b1 + b2) + c
    sx = rb / np.sqrt(2 * s2)  # sqrt(x), clipped to [sqrt(a), sqrt(K')] below
    d = np.clip(sx, (1 - G) * np.sqrt(K / (1 + g2)), (1 + G) * np.sqrt(K / (1 + g2))) - sx
    return rb * b1, rb * b2, c, rb / s2 * np.exp(expo), rb / s2 * np.exp(-d * d)


def _pdf_pass(p: TwdpParams, r, ps):
    """The pdf at the envelope values r[ps.points] (all > 0), in the tier
    ps.name.  The long-double pass takes one _PDF_ORDERS-order ladder over
    its distinct Bessel arguments and so at most _PDF_ORDERS + 1 terms; a
    point it has not stopped by then is reported unconverged."""
    rb = r[ps.points].astype(_LD)
    if ps.name == "mixture":
        return _pdf_mixture(p, rb)
    x1, x2, c, pref, _ = _pdf_args(p, rb)
    # one ladder over the distinct arguments: x2 = x1 at Gamma = 1, x2 = c = 0 at Gamma = 0
    args, at = np.unique(np.concatenate([x1, x2, [c]]), return_inverse=True)
    iv = _ive_ladder(args, _PDF_ORDERS)[:, at]
    n = len(rb)
    iv1, iv2, iv3 = iv[:, :n], iv[:, n:2 * n], iv[:, -1]
    prev = None

    def term(m):
        t = iv1[m] * iv2[m] * iv3[m]
        if m:
            t = 2 * t
            if m & 1:
                t = -t
        return t

    def rest(m, a):
        # rho = |t_m/t_(m-1)| (halved at m = 1: eps_0 = 1) is the product of
        # the ratios I_m/I_(m-1), which fall with m (Turan's inequality), and
        # bounds every later ratio; 0 after a 0 term
        nonlocal prev
        last, prev = prev, (2 * a if m == 0 else a)
        return _geometric_rest(a, a / np.maximum(last, _TINY)) if m else np.full_like(a, np.inf)

    return _pass_result(pref, *_sum_series(term, len(rb), rest, _PDF_ORDERS + 1))


def _pdf_mixture(p: TwdpParams, rb):
    """The mixture pdf at the long-double values rb > 0: factors pi_j(x),
    whose terms peak below max(K', sqrt(K' x))."""
    x = rb * rb / (2 * _LD(p.sigma2))
    step = lambda j: x / (j + 1)  # pi_(j+1)(x) / pi_j(x), falling in j
    return mixture_series(p, len(x), running_product(np.exp(-x), step), step, rb / _LD(p.sigma2),
                          j_peak=np.sqrt(k_top(p.k, p.gamma) * x.astype(float)))


def pdf(p: TwdpParams, r: float) -> SeriesResult:
    """Envelope probability density f_R(r)."""
    return pdf_grid(p, [r])[0]


def pdf_grid(p: TwdpParams, rs) -> SeriesGrid:
    """Envelope probability density along a grid of envelope values."""
    r = _grid(rs, lambda v: np.isfinite(v) & (v >= 0), "r must be finite and >= 0")
    # r = 0 and a tail whose Rician bound rounds to 0 in double need no series;
    # the prefactor, exp(-(sqrt(x) - sqrt(K'))^2 + 2c), overflows, and a Bessel
    # argument leaves the ladder's range, only past the mixture's budget
    with np.errstate(over="ignore"):
        x1, _, c, pref, bound = _pdf_args(p, r.astype(_LD))
    zero = bound < np.ldexp(_LD(1), -1076)
    overflow, wide = ~np.isfinite(pref), np.maximum(x1, c) > _IVE_MAX_X
    if (~zero & (overflow | wide)).any():
        i = np.argmax(~zero & (overflow | wide))
        why = ("its prefactor overflows long double" if overflow[i]
               else f"a Bessel argument exceeds {_IVE_MAX_X:g}")
        raise SeriesDivergenceError(f"envelope pdf at r={float(r[i])} cannot be summed: {why}", 0)
    grid = run_with_rescue(
        lambda ps: _pdf_pass(p, r, ps),
        np.where(zero, 0.0, np.nan),
        what=lambda i: f"envelope pdf at r={float(r[i])}",
    )
    if grid.lost:
        raise grid.lost[min(grid.lost)]
    return grid


# ----------------------------------------------------------------------------
# envelope / SNR CDF, one series in the variable x


def _cdf_pass(p: TwdpParams, x, ps):
    """The cdf at the long-double points x[ps.points], all > 0, in the
    tier ps.name."""
    xb = x[ps.points]
    if ps.name == "mixture":
        return _cdf_mixture(p, xb)
    # 1F1(1-m; 2; x) = L_{m-1}^{(1)}(x) / m runs on the Laguerre recurrence
    # (m+1) G_{m+1} = (2m - x) G_m - (m-1) G_{m-1}, G_1 = 1; its monomial
    # form cancels completely for m beyond ~45 where x < 4m
    lag_prev, lag = xb * 0, xb * 0 + 1

    # |1F1(1-m; 2; x)| = |L_(m-1)^(1)(x)|/m <= e^(x/2) at m >= 1 (Szego,
    # Orthogonal Polynomials, 7.21.3) bounds every later factor
    half = np.exp(xb / 2)

    def laguerre(m):
        nonlocal lag_prev, lag
        if m == 0:
            return np.expm1(xb) / xb, half
        h1 = lag
        lag_prev, lag = lag, ((2 * m - xb) * lag - (m - 1) * lag_prev) / (m + 1)
        return h1, half

    return coef_series(p, -1, laguerre, len(xb), xb * np.exp(-xb))


def _cdf_mixture(p: TwdpParams, xb):
    """The mixture cdf at the long-double points xb > 0: factors
    pi_(j+1)(x), whose terms peak below max(K', x)."""
    step = lambda j: xb / (j + 2)  # pi_(j+2)(x) / pi_(j+1)(x), falling in j
    return mixture_series(p, len(xb), running_product(xb * np.exp(-xb), step), step, 1,
                          j_peak=xb.astype(float), cumulative=True)


def _cdf_grid_x(p: TwdpParams, x) -> SeriesGrid:
    """The cdf series along long-double values x = r^2 / (2 sigma^2) >= 0."""
    # the clamp's complement bound and the series' e^x: see the module docstring
    gap = np.sqrt(x) - math.sqrt(k_top(p.k, p.gamma))
    one = (gap > 0) & (np.exp(-gap * gap) < 2.0**-53)
    with np.errstate(over="ignore"):
        unsummable = (x > 0) & ~one & ~np.isfinite(np.expm1(x))
    if unsummable.any():
        raise SeriesDivergenceError(f"envelope cdf at x={float(x[np.argmax(unsummable)])} cannot be"
                                    " summed: e^x overflows long double", 0)
    grid = run_with_rescue(
        lambda ps: _cdf_pass(p, x, ps),
        np.where((x == 0) | one, one, np.nan),
        what=lambda i: f"envelope cdf at x={float(x[i])}",
    )
    if grid.lost:
        raise grid.lost[min(grid.lost)]
    outside = (grid.value < -1e-9) | (grid.value > 1.0 + 1e-9)
    if outside.any():
        i = np.argmax(outside)
        raise ArithmeticError(
            f"cdf value {float(grid.value[i])} at x={float(x[i])} lies outside [0, 1]")
    np.clip(grid.value, 0.0, 1.0, out=grid.value)
    return grid


def cdf(p: TwdpParams, r: float) -> SeriesResult:
    """Envelope distribution function F_R(r)."""
    return cdf_grid(p, [r])[0]


def cdf_snr(p: TwdpParams, gamma0: float, gamma: float) -> SeriesResult:
    """SNR distribution function F_gamma(gamma) for average SNR gamma0."""
    _check_gamma0(gamma0)
    if gamma < 0 or not math.isfinite(gamma):
        raise InvalidParameterError(f"gamma must be finite and >= 0, got {gamma}")
    return _cdf_grid_x(p, _LD(gamma) * snr_rho(p.k, [gamma0]))[0]


def cdf_grid(p: TwdpParams, rs) -> SeriesGrid:
    """Envelope distribution function along a grid of envelope values."""
    r = _grid(rs, lambda v: np.isfinite(v) & (v >= 0), "r must be finite and >= 0")
    x = r.astype(_LD) ** 2 / (2 * _LD(p.sigma2))
    return _cdf_grid_x(p, x)
