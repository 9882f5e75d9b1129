"""Monte Carlo reference for the analytic TWDP machinery.

Envelope samples are drawn directly from the channel construction:
|V1 e^{j Phi1} + V2 e^{j Phi2} + n| with independent uniform phases and
complex Gaussian n whose real and imaginary parts are N(0, sigma^2) each
(total diffuse power 2 sigma^2, so E[r^2] = Omega).

Randomness is counter-based for reproducibility: the sample stream is cut
into fixed blocks of 65536 draws and block i uses Philox(key=seed,
counter=i << 64).  Blocks are mapped across a thread pool and reduced in
block order, so results are bit-identical for any worker count.

Symbol-error simulation is quasi-static per symbol: every trial draws a
fresh fading amplitude (normalized to unit mean square), transmits a uniform
random M-PSK symbol at symbol SNR r^2 gamma0, adds complex Gaussian noise,
and detects by nearest phase.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asep import ModulationSpec
from .errors import InvalidParameterError
from .params import TwdpParams

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
class Histogram:
    """Equal-width histogram over [0, max sample]."""

    edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray


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
    v1, v2 = p.v1, p.v2
    sigma = math.sqrt(p.sigma2)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
    noise = rng.standard_normal(size=(2, n)) * sigma
    re = v1 * np.cos(phases[0]) + v2 * np.cos(phases[1]) + noise[0]
    im = v1 * np.sin(phases[0]) + v2 * np.sin(phases[1]) + noise[1]
    return np.hypot(re, im)


def sample_envelope(p: TwdpParams, cfg: SimConfig) -> np.ndarray:
    """Draw cfg.n_samples envelope values; deterministic in (seed, n_samples)."""
    n_blocks = (cfg.n_samples + BLOCK - 1) // BLOCK

    def one(i: int) -> np.ndarray:
        size = min(BLOCK, cfg.n_samples - i * BLOCK)
        return _envelope_block(p, size, _block_rng(cfg.seed, i))

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        parts = list(pool.map(one, range(n_blocks)))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


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


def _ser_block(
    p: TwdpParams, mod: ModulationSpec, gamma0: float, n: int, rng: np.random.Generator
) -> int:
    m_order = mod.m_order
    r = _envelope_block(p, n, rng) / math.sqrt(p.omega)
    symbols = rng.integers(0, m_order, size=n)
    noise_scale = math.sqrt(1.0 / (2.0 * gamma0))
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * noise_scale
    y = r * np.exp(2j * math.pi * symbols / m_order) + noise
    detected = np.floor(np.angle(y) * m_order / (2.0 * math.pi) + 0.5).astype(np.int64)
    detected %= m_order
    return int(np.count_nonzero(detected != symbols))


def simulate_psk_ser(
    p: TwdpParams,
    mod: ModulationSpec,
    gamma0_db: float,
    cfg: SimConfig,
    min_errors: int | None = None,
) -> SerEstimate:
    """Simulated M-PSK symbol error rate at average SNR gamma0_db (dB).

    Runs cfg.n_samples trials, or, when min_errors is given, adds whole
    blocks (in block order, so the result stays deterministic for any
    worker count) until min_errors error events or cfg.n_samples trials.
    """
    gamma0 = 10.0 ** (gamma0_db / 10.0)

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
