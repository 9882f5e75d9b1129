"""Tests of the benchmark's oracle against closed forms and mpmath.

    python3 -m pytest -q bench/test_oracle.py
"""

import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import oracle

HERE = Path(__file__).resolve().parent


def _rel(a, b):
    return abs(a - b) / abs(b)


def _mp_specular_sq(k, gamma, sigma2, theta):
    return 2 * sigma2 * k * (1 + gamma**2 + 2 * gamma * mp.cos(theta)) / (1 + gamma**2)


def _mp_rician_pdf(r, s, sigma2):
    r, s = mp.mpf(r), mp.mpf(s)
    return r / sigma2 * mp.exp(-(r * r + s * s) / (2 * sigma2)) * mp.besseli(0, r * s / sigma2)


def _mp_rician_cdf(r, s, sigma2):
    """Noncentral chi-square (2 degrees of freedom) as a Poisson mixture of
    regularized lower incomplete gamma functions; every term is positive."""
    half_nc = mp.mpf(s) ** 2 / (2 * sigma2)
    half_x = mp.mpf(r) ** 2 / (2 * sigma2)
    terms = int(half_nc + 12 * mp.sqrt(half_nc)) + 40
    weight = mp.exp(-half_nc)
    total = mp.mpf(0)
    for j in range(terms):
        total += weight * mp.gammainc(1 + j, 0, half_x, regularized=True)
        weight *= half_nc / (j + 1)
    return total


def _mgf_theta_average(k, gamma, gamma0, s, nodes=1024):
    """The SNR MGF as the theta average of Rician SNR MGFs (trapezoid rule)."""
    sigma2 = oracle.default_sigma2(k)
    t = np.asarray(s, dtype=float)[:, None] * gamma0  # MGF argument of r^2; Omega = 1
    theta = np.linspace(0.0, math.pi, nodes + 1)[None, :]
    spec_sq = 2 * sigma2 * k * (1 + gamma**2 + 2 * gamma * np.cos(theta)) / (1 + gamma**2)
    d = 1.0 - 2.0 * sigma2 * t
    vals = np.exp(spec_sq * t / d) / d
    return (vals.sum(axis=1) - (vals[:, 0] + vals[:, -1]) / 2) / nodes


def _mp_theta_average(f, k, gamma, sigma2):
    # equal subintervals: the integrand peaks at theta = 0 in the upper tail
    nodes = mp.linspace(0, mp.pi, 17)
    return mp.quad(lambda th: f(mp.sqrt(_mp_specular_sq(k, gamma, sigma2, th))), nodes) / mp.pi


def _mp_theta_trapezoid(f, k, gamma, sigma2, n):
    """Trapezoid rule on [0, pi] for an even periodic integrand in theta."""
    vals = [f(mp.sqrt(_mp_specular_sq(k, gamma, sigma2, mp.pi * j / n))) for j in range(n + 1)]
    return (mp.fsum(vals) - (vals[0] + vals[-1]) / 2) / n


def test_oracle_never_imports_twdp():
    code = "import oracle, sys; sys.exit(any(m.split('.')[0] == 'twdp' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


@pytest.mark.parametrize("r", [0.0, 1e-3, 0.3, 1.0, 2.5, 6.0])
def test_rayleigh_pdf_cdf(r):
    s2 = oracle.default_sigma2(0.0)
    pdf = r / s2 * math.exp(-r * r / (2 * s2))
    cdf = -math.expm1(-r * r / (2 * s2))
    got_pdf = float(oracle.pdf(0.0, 0.0, [r])[0])
    got_cdf = float(oracle.cdf(0.0, 0.0, [r])[0])
    if r == 0.0:
        assert got_pdf == 0.0 and got_cdf == 0.0
    else:
        assert _rel(got_pdf, pdf) < 1e-14
        assert _rel(got_cdf, cdf) < 1e-13


@pytest.mark.parametrize("k,r", [(8.0, 0.05), (8.0, 1.0), (8.0, 3.4), (40.0, 0.00875), (40.0, 3.5)])
def test_rician_pdf_cdf_against_mpmath(k, r):
    s2 = oracle.default_sigma2(k)
    with mp.workdps(40):
        s = mp.sqrt(2 * s2 * k)
        pdf = _mp_rician_pdf(r, s, s2)
        cdf = _mp_rician_cdf(r, s, s2)
    assert _rel(float(oracle.pdf(k, 0.0, [r])[0]), float(pdf)) < 1e-13
    assert _rel(float(oracle.cdf(k, 0.0, [r])[0]), float(cdf)) < 1e-13


@pytest.mark.parametrize(
    "k,gamma,r",
    [
        (8.0, 0.5, 0.07),
        (14.0, 1.0, 0.01),
        (14.0, 1.0, 1.0),
        (14.0, 1.0, 3.5),  # pdf upper tail where the series loses digits
        (20.0, 1.0, 3.0),
        (20.0, 1.0, 3.5),
    ],
)
def test_twdp_tails_against_mpmath(k, gamma, r):
    s2 = oracle.default_sigma2(k)
    with mp.workdps(30):
        pdf = _mp_theta_average(lambda s: _mp_rician_pdf(r, s, s2), k, gamma, s2)
    assert _rel(float(oracle.pdf(k, gamma, [r])[0]), float(pdf)) < 1e-13


@pytest.mark.parametrize("k,gamma,r", [(14.0, 1.0, 0.05), (20.0, 1.0, 0.3), (8.0, 0.5, 2.0)])
def test_twdp_cdf_against_mpmath(k, gamma, r):
    s2 = oracle.default_sigma2(k)
    with mp.workdps(25):
        coarse = _mp_theta_trapezoid(lambda s: _mp_rician_cdf(r, s, s2), k, gamma, s2, 48)
        cdf = _mp_theta_trapezoid(lambda s: _mp_rician_cdf(r, s, s2), k, gamma, s2, 96)
    assert _rel(coarse, cdf) < 1e-16
    assert _rel(float(oracle.cdf(k, gamma, [r])[0]), float(cdf)) < 1e-13


def test_pdf_integrates_to_cdf():
    k, gamma = 14.0, 1.0
    r = np.linspace(0.0, 1.2, 2001)
    f = oracle.pdf(k, gamma, r)
    area = np.sum((f[1:] + f[:-1]) / 2 * np.diff(r))
    assert _rel(area, float(oracle.cdf(k, gamma, [1.2])[0])) < 1e-6


def test_theta_average_refuses_unresolved_integrand():
    # a specular peak far narrower than the node spacing must raise, not
    # return a wrong value
    with pytest.raises(oracle.OracleError):
        oracle.pdf(1e6, 1.0, [1.0])


@pytest.mark.parametrize("k,gamma", [(0.0, 0.0), (8.0, 0.0), (8.0, 0.5), (14.0, 1.0), (40.0, 0.3)])
def test_mgf_closed_form_matches_theta_average(k, gamma):
    s = np.array([-1e3, -10.0, -1.0, -1e-3, 0.0])
    closed = oracle.mgf(k, gamma, 10.0, s)
    avg = _mgf_theta_average(k, gamma, 10.0, s)
    assert np.all(np.abs(closed - avg) <= 1e-13 * closed)


@pytest.mark.parametrize("k,gamma,s", [(14.0, 1.0, -10.0), (40.0, 0.0, -10.1), (20.0, 1.0, -0.3)])
def test_mgf_against_mpmath(k, gamma, s):
    g0 = 10.0
    with mp.workdps(30):
        den = 1 + k - g0 * mp.mpf(s)
        u = g0 * mp.mpf(s) / den
        want = (1 + k) / den * mp.exp(k * u) * mp.besseli(0, 2 * gamma * k * abs(u) / (1 + gamma**2))
    assert _rel(float(oracle.mgf(k, gamma, g0, s)), float(want)) < 1e-14


@pytest.mark.parametrize("m", [2, 4, 8, 16])
@pytest.mark.parametrize("db", [0.0, 17.5, 40.0])
def test_asep_rayleigh(m, db):
    g0 = 10.0 ** (db / 10.0)
    closed = oracle.asep_rayleigh(m, g0)
    with mp.workdps(50):
        gs = mp.sin(mp.pi / m) ** 2 * g0
        a = mp.sqrt(gs / (1 + gs))
        want = mp.mpf(m - 1) / m - a / mp.pi * (mp.pi / 2 + mp.atan(a * mp.cot(mp.pi / m)))
    assert _rel(closed, float(want)) < 1e-14
    assert _rel(oracle.asep(0.0, 0.0, m, g0), closed) < 1e-12


@pytest.mark.parametrize("k,gamma,m,db", [(8.0, 0.0, 2, 20.0), (14.0, 1.0, 16, 12.5), (8.0, 0.5, 4, 40.0)])
def test_asep_against_mpmath(k, gamma, m, db):
    g0 = 10.0 ** (db / 10.0)
    with mp.workdps(30):
        c = mp.sin(mp.pi / m) ** 2

        def mgf(phi):
            s = -c / mp.sin(phi) ** 2
            den = 1 + k - g0 * s
            u = g0 * s / den
            return (1 + k) / den * mp.exp(k * u) * mp.besseli(0, 2 * gamma * k * abs(u) / (1 + gamma**2))

        want = mp.quad(mgf, [0, mp.pi / 4, mp.pi / 2, mp.pi - mp.pi / m]) / mp.pi
    assert _rel(oracle.asep(k, gamma, m, g0), float(want)) < 1e-12


@pytest.mark.parametrize("k,gamma,m", [(0.0, 0.0, 2), (8.0, 0.5, 16), (14.0, 1.0, 4)])
def test_asymptote_is_the_high_snr_limit(k, gamma, m):
    g0 = 1e8
    assert _rel(oracle.asep(k, gamma, m, g0), oracle.asep_asymptote(k, gamma, m, g0)) < 1e-4
