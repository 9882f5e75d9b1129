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
re, diffuse im, noise re and noise im, a row of n each.  Blocks are mapped
across a thread pool and reduced in block order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asep import ModulationSpec
from .errors import InvalidParameterError
from .params import TwdpParams
from .specfun import _check_gamma0

BLOCK = 1 << 16


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
        if self.workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {self.workers}")


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


def _ser_block(
    p: TwdpParams, mod: ModulationSpec, gamma0: float, n: int, rng: np.random.Generator
) -> int:
    """Errors among n trials of symbol 0; the noise (re, im) is a (2, n)
    unit normal draw after the envelope's."""
    # scale the fading amplitude, not the noise: sqrt(2 gamma0) stays finite
    # over the whole double range of gamma0, 1/sqrt(2 gamma0) does not
    a = _envelope_block(p, n, rng)
    a *= math.sqrt(2.0) * math.sqrt(gamma0) / math.sqrt(p.omega)
    w_re, w_im = rng.standard_normal(size=(2, n))
    a += w_re
    phase = np.abs(np.arctan2(w_im, a, out=a), out=a)
    return int(np.count_nonzero(phase >= math.pi / mod.m_order))


def simulate_psk_ser(
    p: TwdpParams,
    mod: ModulationSpec,
    gamma0: float,
    cfg: SimConfig,
    min_errors: int | None = None,
) -> SerEstimate:
    """Simulated M-PSK symbol error rate at average SNR gamma0 (linear).

    Runs cfg.n_samples trials, or, when min_errors is given, adds whole
    blocks (in block order, so the result stays deterministic for any
    worker count) until min_errors error events or cfg.n_samples trials.
    """
    _check_gamma0(gamma0)
    errors = 0
    trials = 0
    next_block = 0

    def one(i: int) -> tuple[int, int]:
        size = min(BLOCK, cfg.n_samples - i * BLOCK)
        return _ser_block(p, mod, gamma0, size, _block_rng(cfg.seed, i)), size

    n_blocks_total = (cfg.n_samples + BLOCK - 1) // BLOCK
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        while next_block < n_blocks_total:
            wave = range(next_block, min(next_block + cfg.workers, n_blocks_total))
            done = False
            for e, n in pool.map(one, wave):
                errors += e
                trials += n
                if min_errors is not None and errors >= min_errors:
                    done = True
                    break
            next_block = wave.stop
            if done:
                break

    ser = errors / trials
    ci = 1.96 * math.sqrt(max(ser * (1.0 - ser), 0.0) / trials)
    return SerEstimate(errors=errors, trials=trials, ser=ser, ci95_halfwidth=ci)
