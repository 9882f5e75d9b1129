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

and the SNR CDF is the same series at x = (gamma/gamma0)(1+K), because
gamma = r^2 Es/N0 and gamma0 = 2 sigma^2 (1+K) Es/N0.

Both series alternate and cancel heavily when K (1+Gamma)^2/(1+Gamma^2) is
large; sums run on 80-bit long doubles and rerun in double-longdouble
arithmetic, or beyond its reach in mpmath, whenever the recorded
cancellation would push the result past its accuracy target, ~1e-11
relative however small the value, tails included.  For x > 600 the CDF is
clamped to 1: the exact complement there is below e^{-200} while the
series' partial sums would overflow even long doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CancellationLossError, InvalidParameterError
from .params import TwdpParams
from . import specfun
from .specfun import (
    SeriesResult,
    _MAX_TERMS,
    _ive_ladder,
    _legendre_2f1_next,
    _grid,
    _pass_result,
    _raise_lost,
    _sum_series,
    marcum_q1,
    run_with_rescue,
    term_hump_guard,
)

_LD = np.longdouble
_CDF_X_CLAMP = 600.0


@dataclass(frozen=True)
class SnrContext:
    """Average SNR gamma0 (linear) tied to a symbol-energy ratio Es/N0.

    For a parameter set p, gamma0 = 2 sigma^2 (1 + K) Es/N0 = Omega Es/N0.
    """

    gamma0: float
    es_n0: float

    def __post_init__(self):
        if self.gamma0 <= 0 or not math.isfinite(self.gamma0):
            raise InvalidParameterError(f"gamma0 must be positive, got {self.gamma0}")
        if self.es_n0 <= 0 or not math.isfinite(self.es_n0):
            raise InvalidParameterError(f"es_n0 must be positive, got {self.es_n0}")

    @classmethod
    def from_params(cls, p: TwdpParams, es_n0: float) -> "SnrContext":
        if es_n0 <= 0:
            raise InvalidParameterError(f"es_n0 must be positive, got {es_n0}")
        return cls(gamma0=p.omega * es_n0, es_n0=es_n0)

    @classmethod
    def from_average_snr(cls, p: TwdpParams, gamma0: float) -> "SnrContext":
        if gamma0 <= 0:
            raise InvalidParameterError(f"gamma0 must be positive, got {gamma0}")
        return cls(gamma0=gamma0, es_n0=gamma0 / p.omega)


# ----------------------------------------------------------------------------
# envelope PDF


def _pdf_pass(p: TwdpParams, r, be):
    """The pdf series at the envelope values r[be.points] (all > 0)."""
    K = be.cast(p.k)
    G = be.cast(p.gamma)
    s2 = be.cast(p.sigma2)
    rb = be.cast(be.pick(r))
    g2 = G * G
    b1 = 2 * be.sqrt(K / (2 * s2) / (1 + g2))
    b2 = G * b1
    c = 2 * K * G / (1 + g2)
    x1, x2 = rb * b1, rb * b2  # array first: an mpf meeting an array tries (slowly) to convert it

    # each point sums terms up to the ladder order nu; the points that
    # need more rerun on a ladder twice as long
    s, last, possum = (rb * 0 for _ in range(3))
    n = np.zeros(len(rb), dtype=np.int64)
    ok = np.zeros(len(rb), dtype=bool)
    todo = np.arange(len(rb))
    nu = 48
    while True:
        # c rides along as one more point of the first ladder
        iv = _ive_ladder(np.append(x1[todo], c), nu, be)
        iv1, iv3 = iv[:, :-1], iv[:, -1]
        iv2 = iv1 if p.gamma == 1.0 else _ive_ladder(x2[todo], nu, be)  # x2 = Gamma x1

        def term(m, _live):
            t = iv1[m] * iv2[m] * iv3[m]
            if m:
                t = 2 * t
                if m & 1:
                    t = -t
            return t

        s[todo], n[todo], last[todo], possum[todo], ok[todo] = _sum_series(
            term, len(todo), n_limit=nu + 1
        )
        todo = todo[~ok[todo]]
        if not todo.size or nu >= _MAX_TERMS:
            break
        nu = min(2 * nu, _MAX_TERMS)

    expo = -rb * rb / (2 * s2) - K + rb * (b1 + b2) + c
    pref = rb / s2 * be.exp(expo)
    return _pass_result(pref, s, n, last, possum, ok)


def pdf(p: TwdpParams, r: float) -> SeriesResult:
    """Envelope probability density f_R(r)."""
    return pdf_grid(p, [r])[0]


def pdf_grid(p: TwdpParams, rs) -> list[SeriesResult]:
    """Envelope probability density along a grid of envelope values."""
    r = _grid(rs, lambda v: np.isfinite(v) & (v >= 0), "r must be finite and >= 0")
    out = [SeriesResult(0.0, 0, 0.0, 1.0, "none", 0)] * len(r)
    live = np.flatnonzero(r > 0)
    results = _raise_lost(run_with_rescue(
        lambda be: _pdf_pass(p, r[live], be),
        len(live),
        what=lambda i: f"envelope pdf at r={float(r[live[i]])}",
    ))
    for i, res in zip(live, results):
        out[i] = res
    return out


# ----------------------------------------------------------------------------
# envelope / SNR CDF, one series in the variable x


def _cdf_pass(p: TwdpParams, x, be):
    """The cdf series at the points x[be.points], all in (0, _CDF_X_CLAMP]."""
    K = be.cast(p.k)
    G = be.cast(p.gamma)
    g2 = G * G
    xb = be.cast(be.pick(x))
    a = K / (1 + g2)
    # 1F1(1-m; 2; x) = L_{m-1}^{(1)}(x) / m runs on the Laguerre recurrence
    # (m+1) G_{m+1} = (2m - x) G_m - (m-1) G_{m-1}, G_1 = 1; its monomial
    # form cancels completely for m beyond ~45 where x < 4m
    lag_prev, lag = xb * 0, xb * 0 + 1
    leg_prev, leg = be.cast(0.0), be.cast(1.0)
    cm = be.cast(1.0)

    def term(m, _live):
        nonlocal lag_prev, lag, leg_prev, leg, cm
        if m == 0:
            h1 = be.expm1(xb) / xb
        else:
            h1 = lag
            lag_prev, lag = lag, ((2 * m - xb) * lag - (m - 1) * lag_prev) / (m + 1)
        t = h1 * cm * leg  # array first: an mpf meeting an array tries (slowly) to convert it
        leg_prev, leg = leg, _legendre_2f1_next(m, leg, leg_prev, g2)
        cm = cm * (-a) / (m + 1)
        return t

    s, n, last, possum, ok = _sum_series(term, len(xb), min_terms=term_hump_guard(p.k, p.gamma))
    return _pass_result(xb * be.exp(-xb), s, n, last, possum, ok)


def _cdf_grid_x(p: TwdpParams, x) -> list[SeriesResult]:
    """The cdf series along long-double values x = r^2 / (2 sigma^2) >= 0."""
    out = [SeriesResult(0.0 if xi == 0 else 1.0, 0, 0.0, 1.0, "none", 0) for xi in x]
    # above the clamp the complement is below exp(-((sqrt(x) - sqrt(2K))^2)/2-ish) < 1e-180
    live = np.flatnonzero((x > 0) & (x <= _CDF_X_CLAMP))
    xs = x[live]
    results = _raise_lost(run_with_rescue(
        lambda be: _cdf_pass(p, xs, be),
        len(live),
        what=lambda i: f"envelope cdf at x={float(xs[i])}",
    ))
    for i, res in zip(live, results):
        if not -1e-9 <= res.value <= 1.0 + 1e-9:
            raise CancellationLossError(
                f"cdf series lost too many digits: value {res.value} at x={float(x[i])}",
                res.cancellation_ratio,
            )
        out[i] = replace(res, value=min(1.0, max(0.0, res.value)))
    return out


def cdf(p: TwdpParams, r: float) -> SeriesResult:
    """Envelope distribution function F_R(r)."""
    return cdf_grid(p, [r])[0]


def cdf_snr(p: TwdpParams, ctx: SnrContext, gamma: float) -> SeriesResult:
    """SNR distribution function F_gamma(gamma) for average SNR ctx.gamma0."""
    if gamma < 0 or not math.isfinite(gamma):
        raise InvalidParameterError(f"gamma must be finite and >= 0, got {gamma}")
    x = np.array([gamma * (1.0 + p.k) / ctx.gamma0], dtype=_LD)
    return _cdf_grid_x(p, x)[0]


def cdf_grid(p: TwdpParams, rs) -> list[SeriesResult]:
    """Envelope distribution function along a grid of envelope values."""
    r = _grid(rs, lambda v: np.isfinite(v) & (v >= 0), "r must be finite and >= 0")
    x = r.astype(_LD) ** 2 / (2 * _LD(p.sigma2))
    return _cdf_grid_x(p, x)


# ----------------------------------------------------------------------------
# Rayleigh / Rician closed forms (oracles for the series expressions)


def pdf_rayleigh(sigma2: float, r: float) -> float:
    """Rayleigh density (r/sigma^2) exp(-r^2 / (2 sigma^2))."""
    if sigma2 <= 0:
        raise InvalidParameterError(f"sigma2 must be positive, got {sigma2}")
    if r < 0:
        raise InvalidParameterError(f"r must be >= 0, got {r}")
    return r / sigma2 * math.exp(-r * r / (2.0 * sigma2))


def cdf_rayleigh(sigma2: float, r: float) -> float:
    """Rayleigh distribution function 1 - exp(-r^2 / (2 sigma^2))."""
    if sigma2 <= 0:
        raise InvalidParameterError(f"sigma2 must be positive, got {sigma2}")
    if r < 0:
        raise InvalidParameterError(f"r must be >= 0, got {r}")
    return -math.expm1(-r * r / (2.0 * sigma2))


def pdf_rician(k: float, sigma2: float, r: float) -> float:
    """Rician density with specular power 2 sigma^2 K.

    (r/sigma^2) exp(-r^2/(2 sigma^2) - K) I_0(r sqrt(2K)/sigma), assembled in
    scaled form so the exponent is -(r/(sqrt(2) sigma) - sqrt(K))^2 <= 0.
    """
    if sigma2 <= 0:
        raise InvalidParameterError(f"sigma2 must be positive, got {sigma2}")
    if k < 0 or r < 0:
        raise InvalidParameterError("k and r must be >= 0")
    sig = math.sqrt(sigma2)
    xarg = r * math.sqrt(2.0 * k) / sig
    expo = -((r / (math.sqrt(2.0) * sig) - math.sqrt(k)) ** 2)
    return r / sigma2 * math.exp(expo) * specfun.bessel_i_scaled(0, xarg)


def cdf_rician(k: float, sigma2: float, r: float) -> float:
    """Rician distribution function 1 - Q_1(sqrt(2K), r/sigma)."""
    if sigma2 <= 0:
        raise InvalidParameterError(f"sigma2 must be positive, got {sigma2}")
    if k < 0 or r < 0:
        raise InvalidParameterError("k and r must be >= 0")
    return 1.0 - marcum_q1(math.sqrt(2.0 * k), r / math.sqrt(sigma2))
