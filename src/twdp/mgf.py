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
as the other's cross-check.  u is computed as (1+K)/(1+K - g0 s) - 1, which
stays exact as s -> -inf.  The closed form takes exp(-x) I_0(x) from
scipy.special.i0e (within 4e-16 relative).  The series alternates and is
rerun in double-longdouble arithmetic, or beyond its reach in mpmath, when
its recorded cancellation exceeds the long-double budget.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .params import TwdpParams
from .specfun import (
    SeriesResult,
    _ARITH_LD,
    _check_gamma0,
    _exp_i0,
    _grid,
    _legendre_2f1_next,
    _legendre_coefs,
    _pass_result,
    _raise_lost,
    _sum_series,
    run_with_rescue,
    term_hump_guard,
)


def _snr_ratio(k, gamma0, s, be):
    """u = g0 s / (1+K - g0 s), computed as (1+K)/(1+K - g0 s) - 1."""
    t = be.cast(gamma0) * be.cast(s)
    den = 1 + be.cast(k) - t
    return (1 + be.cast(k)) / den - 1, den


def _mgf_series_pass(p: TwdpParams, gamma0: float, s, be):
    """The series at the points s[be.points]."""
    g2 = be.cast(p.gamma) ** 2
    a = be.cast(p.k) / (1 + g2)
    u, den = _snr_ratio(p.k, gamma0, be.pick(s), be)
    q = a * u
    cm = u * 0 + 1
    leg_prev, leg = be.cast(0.0), be.cast(1.0)
    coefs = _legendre_coefs(g2)

    def term(m, _live):
        nonlocal cm, leg_prev, leg
        t = cm * leg
        leg_prev, leg = leg, _legendre_2f1_next(m, leg, leg_prev, coefs)
        cm = cm * q / (m + 1)
        return t

    ssum, n, last, possum, ok = _sum_series(term, len(u), be, min_terms=term_hump_guard(p.k, p.gamma))
    return _pass_result((1 + be.cast(p.k)) / den, ssum, n, last, possum, ok)


def mgf_series(p: TwdpParams, gamma0: float, s: float) -> SeriesResult:
    """SNR MGF at average SNR gamma0 in series form, valid for s <= 0."""
    return mgf_series_grid(p, gamma0, [s])[0]


def mgf_series_grid(p: TwdpParams, gamma0: float, ss) -> list[SeriesResult]:
    """SNR MGF at average SNR gamma0 in series form along a grid of s <= 0."""
    _check_gamma0(gamma0)
    s = _grid(ss, lambda v: np.isfinite(v) & (v <= 0), "s must be finite and <= 0")
    return _raise_lost(run_with_rescue(
        lambda be: _mgf_series_pass(p, gamma0, s, be),
        len(s),
        what=lambda i: f"mgf series at s={float(s[i])}",
    ))


def mgf_closed(p: TwdpParams, gamma0: float, s: float) -> float:
    """SNR MGF at average SNR gamma0 in closed form, valid for s <= 0."""
    _check_gamma0(gamma0)
    if s > 0 or not math.isfinite(s):
        raise InvalidParameterError(f"s must be finite and <= 0, got {s}")
    be = _ARITH_LD
    k = be.cast(p.k)
    g = be.cast(p.gamma)
    u, den = _snr_ratio(p.k, gamma0, s, be)
    xarg = 2 * g * k * (-u) / (1 + g * g)  # >= 0, and xarg <= |k u|
    return _exp_i0((1 + k) / den, k * u, xarg)
