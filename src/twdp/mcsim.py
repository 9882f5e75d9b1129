"""Monte Carlo M-PSK symbol error rate: the simulation check of the
analytic error-rate routes.

The TWDP envelope |V1 e^{j Phi1} + V2 e^{j Phi2} + n_d| depends on the
ray phases only through their difference theta = Phi2 - Phi1 (Durgin,
Rappaport & de Wolf, IEEE Trans. Commun. 50(6), 2002): the diffuse term
n_d, complex Gaussian with N(0, sigma^2) real and imaginary parts, is
circularly symmetric, so rotating the sum by -Phi1 leaves its law unchanged
and a trial draws r = |V1 + V2 e^{j theta} + n_d| with theta uniform on
[0, 2 pi).  The additive noise and the nearest-phase detector are both
invariant under rotation by 2 pi/M, so every M-PSK symbol has the same
conditional error rate and every trial sends symbol 0.  With the fading
amplitude scaled to sqrt(2 gamma0) r/sqrt(Omega) (symbol SNR r^2 gamma0 /
Omega, gamma0 the linear average SNR) and unit-variance noise w, a trial
is an error when |atan2(w_im, sqrt(2 gamma0) r/sqrt(Omega) + w_re)| >= pi/M.

Randomness is counter-based for reproducibility: the trials are cut into
fixed blocks of 65536 and block i uses Philox(key=seed, counter=i << 64).
Its draws are theta for each trial, then 4 x n standard normals: diffuse
re, diffuse im, noise re and noise im, a row of n each.  They depend on the
seed and i alone, not on gamma0, so an SNR sweep draws each block once and
every point of the sweep reads it (common random numbers across SNR).
Blocks are mapped across a thread pool and reduced in block order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asep import ModulationSpec
from .errors import InvalidParameterError
from .params import TwdpParams
from .specfun import _grid

BLOCK = 1 << 16
# the most worker threads one simulation may start: far above a machine's
# useful count, and a larger one is refused before any pool exists
_MAX_WORKERS = 64


@dataclass(frozen=True)
class SimConfig:
    """Sampling budget and RNG/worker policy."""

    n_samples: int = 1_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidParameterError("seed must fit in 64 bits")
        if not 1 <= self.workers <= _MAX_WORKERS:
            raise InvalidParameterError(
                f"workers must be in [1, {_MAX_WORKERS}], got {self.workers}")


@dataclass(frozen=True)
class SerEstimate:
    """Symbol error rate with a normal-approximation 95% interval."""

    errors: int
    trials: int
    ser: float
    ci95_halfwidth: float

    @property
    def converged(self) -> bool:
        # below ~10 observed errors the normal interval is not meaningful
        return self.errors >= 10


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=block_index << 64))


def _envelope_block(p: TwdpParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n envelope values |v1 + v2 e^{j theta} + n_d|: theta uniform on
    [0, 2 pi), then the diffuse parts (re, im) as a (2, n) normal draw."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    diffuse = rng.standard_normal(size=(2, n))
    diffuse *= math.sqrt(p.sigma2)
    re, im = diffuse
    re += p.v1
    re += p.v2 * np.cos(theta)
    im += p.v2 * np.sin(theta, out=theta)
    return np.hypot(re, im, out=re)


def simulate_psk_ser_grid(p: TwdpParams, mod: ModulationSpec, gamma0s, cfg: SimConfig,
                          min_errors: int | None = None) -> list[SerEstimate]:
    """Simulated M-PSK symbol error rate at each average SNR of gamma0s
    (linear), every point read from the same blocks, each drawn once.

    Runs cfg.n_samples trials per point, or, when min_errors is given, adds
    whole blocks to a point (in block order, so the result stays
    deterministic for any worker count) until min_errors error events or
    cfg.n_samples trials; a stopped point sits out later waves of blocks.
    Each gamma0, and min_errors >= 1, is checked before any draw.
    """
    gamma0s = _grid(gamma0s, lambda v: (v > 0) & np.isfinite(v),
                    "gamma0 must be positive and finite").tolist()
    if min_errors is not None and min_errors < 1:
        raise InvalidParameterError(f"min_errors must be >= 1, got {min_errors}")
    goal = math.inf if min_errors is None else min_errors
    # scale the fading amplitude, not the noise: sqrt(2 gamma0) stays finite
    # over the whole double range of gamma0, 1/sqrt(2 gamma0) does not
    scales = [math.sqrt(2.0) * math.sqrt(g) / math.sqrt(p.omega) for g in gamma0s]
    errors, trials = [0] * len(scales), [0] * len(scales)

    def one(i: int, points: list) -> tuple[list, int]:
        # errors at each of the points; the (2, n) unit noise follows the envelope's draws
        size = min(BLOCK, cfg.n_samples - i * BLOCK)
        rng = _block_rng(cfg.seed, i)
        env = _envelope_block(p, size, rng)
        w_re, w_im = rng.standard_normal(size=(2, size))
        a, counts = np.empty_like(env), []
        for k in points:
            np.multiply(env, scales[k], out=a)
            a += w_re
            phase = np.abs(np.arctan2(w_im, a, out=a), out=a)
            counts.append(int(np.count_nonzero(phase >= math.pi / mod.m_order)))
        return counts, size

    n_blocks = (cfg.n_samples + BLOCK - 1) // BLOCK
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for first in range(0, n_blocks, cfg.workers):
            points = [k for k, e in enumerate(errors) if e < goal]
            if not points:
                break
            wave = range(first, min(first + cfg.workers, n_blocks))
            for counts, size in pool.map(lambda i: one(i, points), wave):
                for k, e in zip(points, counts):
                    if errors[k] < goal:
                        errors[k] += e
                        trials[k] += size

    return [SerEstimate(e, n, e / n, 1.96 * math.sqrt(max(e / n * (1.0 - e / n), 0.0) / n))
            for e, n in zip(errors, trials)]


def simulate_psk_ser(p: TwdpParams, mod: ModulationSpec, gamma0: float, cfg: SimConfig,
                     min_errors: int | None = None) -> SerEstimate:
    """Simulated M-PSK symbol error rate at average SNR gamma0 (a one-point grid)."""
    return simulate_psk_ser_grid(p, mod, [gamma0], cfg, min_errors)[0]
