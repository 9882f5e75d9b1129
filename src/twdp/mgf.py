"""Moment generating function of the instantaneous SNR.

Two equivalent forms are exposed for s <= 0:

* series:  M(s) = (1+K)/(1+K-s g0) sum_m (1/m!) (K/(1+Gamma^2))^m
                  (g0 s/(1+K-s g0))^m 2F1(-m, -m; 1; Gamma^2)
* closed:  M(s) = (1+K)/(1+K-s g0) exp(K u) I_0(2 Gamma K |u| / (1+Gamma^2)),
           u = g0 s/(1+K-s g0) in (-1, 0]

with g0 the average SNR gamma0, linear, as everywhere in the library.
The two are linked by sum_m a^m/m! 2F1(-m,-m;1;b) = exp(a+ab) I_0(2a sqrt(b));
I_0 is even, so the closed form takes the Bessel argument in magnitude.  The
closed form is the cheap production path; the series is the form that term-
by-term manipulations (error-probability integrals) build on, and each serves
as the other's cross-check.  Both take u = s/(rho - s) and a = 1 + u =
rho/(rho - s), rho = (1+K)/g0 (specfun.snr_rho), neither of which cancels.
The closed form takes exp(-x) I_0(x) from scipy.special.i0e (within 4e-16
relative), elementwise over arrays (_closed_mgf, which the error-rate
quadrature calls too).  The series alternates; a point whose recorded
cancellation exceeds the long-double budget, or which does not converge
within its term budget, is summed again as the positive mixture M(s) =
sum_k w_k a^(k+1) over the model's Poisson mixing weights w_k
(specfun.mixture_series).
"""

from __future__ import annotations

import numpy as np

from .params import TwdpParams
from .specfun import (
    SeriesGrid,
    SeriesResult,
    _check_gamma0,
    _exp_i0,
    _grid,
    coef_series,
    mixture_series,
    run_with_rescue,
    running_product,
    snr_rho,
)

_LD = np.longdouble


def _snr_ratio(rho, s):
    """(u, a) in long double: u = g0 s/(1+K - g0 s) = s/(rho - s) and a = 1
    + u = rho/(rho - s) at rho = (1+K)/g0."""
    s = _LD(s)
    d = rho - s
    return s / d, rho / d


def _closed_mgf(p: TwdpParams, rho, s):
    """The closed form in double at long double rho = (1+K)/g0, s <= 0; elementwise."""
    k, g = _LD(p.k), _LD(p.gamma)
    u, a = _snr_ratio(rho, s)
    xarg = 2 * g * k * (-u) / (1 + g * g)  # >= 0, and xarg <= |k u|
    return _exp_i0(a, k * u, xarg)


def _mgf_series_pass(p: TwdpParams, gamma0: float, s, ps):
    """The series at the points s[ps.points] in the tier ps.name:
    specfun.coef_series at the SNR ratio u with factor 1, or the mixture,
    with factors a^(k+1), a = 1 + u."""
    u, a = _snr_ratio(snr_rho(p.k, gamma0), s[ps.points])
    if ps.name == "longdouble":
        return coef_series(p, u, lambda m: (1, 1), len(u), a)
    return mixture_series(p, len(a), running_product(a, lambda k: a), lambda k: a, 1)


def mgf_series(p: TwdpParams, gamma0: float, s: float) -> SeriesResult:
    """SNR MGF at average SNR gamma0 in series form, valid for s <= 0."""
    return mgf_series_grid(p, gamma0, [s])[0]


def mgf_series_grid(p: TwdpParams, gamma0: float, ss) -> SeriesGrid:
    """SNR MGF at average SNR gamma0 in series form along a grid of s <= 0."""
    _check_gamma0(gamma0)
    s = _grid(ss, lambda v: np.isfinite(v) & (v <= 0), "s must be finite and <= 0")
    grid = run_with_rescue(
        lambda ps: _mgf_series_pass(p, gamma0, s, ps),
        np.full(len(s), np.nan),
        what=lambda i: f"mgf series at s={float(s[i])}",
    )
    if grid.lost:
        raise grid.lost[min(grid.lost)]
    return grid


def mgf_closed(p: TwdpParams, gamma0: float, s: float) -> float:
    """SNR MGF at average SNR gamma0 in closed form, valid for s <= 0."""
    return float(mgf_closed_grid(p, gamma0, [s])[0])


def mgf_closed_grid(p: TwdpParams, gamma0: float, ss) -> np.ndarray:
    """SNR MGF at average SNR gamma0 in closed form along a grid of s <= 0."""
    _check_gamma0(gamma0)
    s = _grid(ss, lambda v: np.isfinite(v) & (v <= 0), "s must be finite and <= 0")
    return _closed_mgf(p, snr_rho(p.k, gamma0), s)
