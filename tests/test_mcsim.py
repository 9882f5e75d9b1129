"""Monte Carlo sampler: physics, determinism, and agreement with analytics."""

import math

import numpy as np
import pytest
from scipy import interpolate, stats

from twdp import (
    InvalidParameterError,
    ModulationSpec,
    SerEstimate,
    SimConfig,
    TwdpParams,
    asep_quadrature,
    cdf_grid,
    simulate_psk_ser,
    simulate_psk_ser_grid,
)

from twdp import mcsim
from twdp.cli import main

from conftest import FIGURE_SETS, histogram, rayleigh_bpsk, sample_envelope


def cdf_callable(p, r_top, points=2001):
    """Monotone interpolant of the analytic CDF for KS testing."""
    grid = np.linspace(0.0, r_top, points)
    vals = np.array([res.value for res in cdf_grid(p, grid)])
    f = interpolate.PchipInterpolator(grid, vals)

    def F(x):
        return np.clip(f(np.clip(x, 0.0, r_top)), 0.0, 1.0)

    return F


class TestSampleEnvelope:
    def test_rayleigh_power(self):
        p = TwdpParams(k=0.0, gamma=0.0, sigma2=0.8)
        s = sample_envelope(p, SimConfig(n_samples=400_000, seed=11))
        mean_sq = float((s ** 2).mean())
        se = float((s ** 2).std(ddof=1)) / math.sqrt(s.size)
        assert abs(mean_sq - 2 * 0.8) <= 3 * se

    @pytest.mark.parametrize("k,g", [(0.0, 0.0), (8.0, 0.0), (8.0, 0.5), (14.0, 1.0)])
    def test_total_power_identity(self, k, g):
        p = TwdpParams(k=k, gamma=g)
        s = sample_envelope(p, SimConfig(n_samples=1_000_000, seed=12, workers=4))
        mean_sq = float((s ** 2).mean())
        se = float((s ** 2).std(ddof=1)) / math.sqrt(s.size)
        assert abs(mean_sq - p.omega) <= 4 * se

    def test_kolmogorov_smirnov_against_cdf(self):
        p = TwdpParams(k=14.0, gamma=1.0)
        s = sample_envelope(p, SimConfig(n_samples=200_000, seed=13))
        F = cdf_callable(p, float(s.max()) * 1.0001)
        res = stats.kstest(s, F)
        assert res.pvalue > 0.01

    def test_seed_determinism(self):
        p = TwdpParams(k=2.0, gamma=0.3)
        a = sample_envelope(p, SimConfig(n_samples=150_000, seed=5))
        b = sample_envelope(p, SimConfig(n_samples=150_000, seed=5))
        assert np.array_equal(a, b)

    def test_worker_count_invariance(self):
        p = TwdpParams(k=2.0, gamma=0.3)
        outs = [
            sample_envelope(p, SimConfig(n_samples=300_000, seed=5, workers=w))
            for w in (1, 3, 8)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


class TestPhaseDifferenceKernel:
    @pytest.mark.parametrize("k,g", FIGURE_SETS)
    def test_envelope_matches_direct_construction(self, k, g):
        # one phase, the rays' difference, against both absolute phases
        p = TwdpParams(k=k, gamma=g)
        n = 1 << 18
        fast = mcsim._envelope_block(p, n, mcsim._block_rng(41, 0))
        direct = sample_envelope(p, SimConfig(n_samples=n, seed=42))
        assert stats.ks_2samp(fast, direct).pvalue > 1e-3

    @pytest.mark.parametrize("m_order", [2, 16])
    def test_block_draws_and_detector(self, m_order):
        # block draws: theta, then 4 x n normals (diffuse re, diffuse im,
        # noise re, noise im); symbol 0 sent, nearest-phase detection
        p, gamma0, n = TwdpParams(k=8.0, gamma=0.5), 10.0, 5000
        rng = mcsim._block_rng(7, 0)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        z = rng.standard_normal(size=(4, n))
        h = p.v1 + p.v2 * np.exp(1j * theta) + math.sqrt(p.sigma2) * (z[0] + 1j * z[1])
        y = np.abs(h) / math.sqrt(p.omega) + (z[2] + 1j * z[3]) / math.sqrt(2 * gamma0)
        detected = np.floor(np.angle(y) * m_order / (2 * math.pi) + 0.5).astype(int) % m_order
        got = simulate_psk_ser(p, ModulationSpec(m_order), gamma0, SimConfig(n_samples=n, seed=7))
        assert got.errors == np.count_nonzero(detected)


class TestHistogram:
    def test_constant_samples_single_bin(self):
        h = histogram(np.full(100, 2.5))
        assert h.counts.sum() == 100
        assert np.count_nonzero(h.counts) == 1

    def test_density_normalization(self):
        p = TwdpParams(k=8.0, gamma=0.0)
        s = sample_envelope(p, SimConfig(n_samples=100_000, seed=3))
        h = histogram(s)
        widths = np.diff(h.edges)
        assert float((h.density * widths).sum()) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_unnormalized_counts(self):
        s = sample_envelope(TwdpParams(k=0.0, gamma=0.0), SimConfig(n_samples=70_000, seed=4))
        h = histogram(s)
        assert h.counts.sum() == 70_000
        assert np.array_equal(h.counts, np.histogram(s, bins=20, range=(0.0, s.max()))[0])

    def test_bins_match_analytic_probabilities(self):
        from twdp import cdf

        p = TwdpParams(k=8.0, gamma=0.0)
        n = 500_000
        s = sample_envelope(p, SimConfig(n_samples=n, seed=21))
        h = histogram(s, n_bins=20)
        for i in range(20):
            prob = cdf(p, float(h.edges[i + 1])).value - cdf(p, float(h.edges[i])).value
            sigma = math.sqrt(n * prob * (1 - prob))
            assert abs(h.counts[i] - n * prob) <= 4 * sigma + 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            histogram(np.array([]))

    def test_bin_count_validated(self):
        with pytest.raises(InvalidParameterError):
            histogram(np.ones(10), n_bins=0)


class TestSimulatePskSer:
    def test_rayleigh_bpsk_within_three_sigma(self):
        est = simulate_psk_ser(
            TwdpParams(k=0.0, gamma=0.0), ModulationSpec(2), 10.0,
            SimConfig(n_samples=1_000_000, seed=9),
        )
        ref = rayleigh_bpsk(10.0)
        assert abs(est.ser - ref) <= 3 * est.ci95_halfwidth / 1.96

    def test_high_snr_errors_vanish(self):
        est = simulate_psk_ser(
            TwdpParams(k=8.0, gamma=0.0), ModulationSpec(2), 1e4,
            SimConfig(n_samples=100_000, seed=2),
        )
        assert est.ser <= 1e-4

    def test_quadrature_agreement(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        est = simulate_psk_ser(p, ModulationSpec(4), 100.0,
                               SimConfig(n_samples=2_000_000, seed=31))
        ref = asep_quadrature(p, ModulationSpec(4), 100.0)
        assert abs(est.ser - ref) <= 3 * est.ci95_halfwidth / 1.96

    def test_deterministic_across_workers(self):
        p = TwdpParams(k=8.0, gamma=0.5)
        runs = [
            simulate_psk_ser(p, ModulationSpec(4), 10 ** 1.2,  # 12 dB
                             SimConfig(n_samples=500_000, seed=17, workers=w))
            for w in (1, 2, 7)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_adaptive_stop(self):
        p = TwdpParams(k=0.0, gamma=0.0)
        est = simulate_psk_ser(p, ModulationSpec(2), 10 ** 0.5,  # 5 dB
                               SimConfig(n_samples=10_000_000, seed=1),
                               min_errors=100)
        assert est.errors >= 100
        assert est.trials < 10_000_000  # stopped early at block granularity

    def test_adaptive_worker_invariance(self):
        p = TwdpParams(k=8.0, gamma=0.0)
        runs = [
            simulate_psk_ser(p, ModulationSpec(2), 10 ** 1.5,  # 15 dB
                             SimConfig(n_samples=5_000_000, seed=6, workers=w),
                             min_errors=200)
            for w in (1, 4)
        ]
        assert runs[0] == runs[1]

    def test_convergence_floor(self):
        est = simulate_psk_ser(TwdpParams(k=8.0, gamma=0.0), ModulationSpec(2), 1e4,
                               SimConfig(n_samples=70_000, seed=2))
        assert not est.converged  # almost surely < 10 events at this depth
        est2 = simulate_psk_ser(TwdpParams(k=0.0, gamma=0.0), ModulationSpec(2), 1.0,
                                SimConfig(n_samples=70_000, seed=2))
        assert est2.converged

    def test_ci_positive_between_extremes(self):
        est = simulate_psk_ser(TwdpParams(k=0.0, gamma=0.0), ModulationSpec(2), 10.0,
                               SimConfig(n_samples=100_000, seed=9))
        assert 0 < est.errors < est.trials
        assert est.ci95_halfwidth > 0
        assert est.ser == est.errors / est.trials


def serial_ser(p, mod, gamma0, cfg, min_errors=None):
    """The estimate at one point, one block at a time in block order: the
    reference of the grid, with its detector arithmetic written out."""
    errors = trials = 0
    for i in range(-(-cfg.n_samples // mcsim.BLOCK)):
        n = min(mcsim.BLOCK, cfg.n_samples - i * mcsim.BLOCK)
        rng = mcsim._block_rng(cfg.seed, i)
        a = mcsim._envelope_block(p, n, rng) * (
            math.sqrt(2.0) * math.sqrt(gamma0) / math.sqrt(p.omega))
        w_re, w_im = rng.standard_normal(size=(2, n))
        errors += int(np.count_nonzero(np.abs(np.arctan2(w_im, a + w_re)) >= math.pi / mod.m_order))
        trials += n
        if min_errors is not None and errors >= min_errors:
            break
    ser = errors / trials
    return SerEstimate(errors, trials, ser, 1.96 * math.sqrt(max(ser * (1.0 - ser), 0.0) / trials))


class TestSimulateGrid:
    """One draw of each block, read by every SNR point of a sweep."""

    P, MOD = TwdpParams(k=8.0, gamma=0.5), ModulationSpec(4)
    # 0-30 dB: under min_errors=100 these stop after blocks 0, 0, 0, 1 and
    # 3, and the last runs all 6; at 2 workers, in the first wave, in the
    # second, and never
    GAMMA0S = [10.0 ** (db / 10.0) for db in (0, 15, 20, 25, 28, 30)]

    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("min_errors", [None, 1, 100, 1000])
    def test_equals_the_per_point_loop(self, workers, min_errors):
        cfg = SimConfig(n_samples=5 * mcsim.BLOCK + 1234, seed=4, workers=workers)
        grid = simulate_psk_ser_grid(self.P, self.MOD, self.GAMMA0S, cfg, min_errors)
        loop = [simulate_psk_ser(self.P, self.MOD, g, cfg, min_errors) for g in self.GAMMA0S]
        assert grid == loop == [serial_ser(self.P, self.MOD, g, cfg, min_errors)
                                for g in self.GAMMA0S]
        if min_errors == 100:
            assert len({est.trials for est in grid}) >= 3

    def test_one_draw_per_block(self, monkeypatch, capsys):
        # 4 SNR points over 4 blocks draw 4 blocks, not 16
        drawn = []
        block_rng = mcsim._block_rng

        def counting(seed, i):
            drawn.append(i)
            return block_rng(seed, i)

        monkeypatch.setattr(mcsim, "_block_rng", counting)
        assert main(["simulate", "--k", "8", "--gamma", "0.5", "--snr-db", "0:15:5",
                     "--samples", str(3 * mcsim.BLOCK + 5), "--workers", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert sorted(drawn) == [0, 1, 2, 3]

    @pytest.mark.parametrize("gamma0s", [[10.0, 0.0], [10.0, math.nan], [math.inf], [-1.0, 10.0]])
    def test_every_point_checked_before_any_draw(self, monkeypatch, gamma0s):
        def no_draw(seed, i):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(mcsim, "_block_rng", no_draw)
        with pytest.raises(InvalidParameterError, match="gamma0 must be positive and finite"):
            simulate_psk_ser_grid(self.P, self.MOD, gamma0s, SimConfig(n_samples=1000))

    def test_cli_sweep_below_the_double_range(self, capsys):
        # -4000 dB is 0.0 in double: the sweep's first point is refused
        assert main(["simulate", "--k", "1", "--snr-db=-4000:0:2000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "gamma0 must be positive and finite" in err


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(n_samples=0)
        with pytest.raises(InvalidParameterError):
            SimConfig(workers=0)
        # a bound far above any machine's useful count, checked before any pool
        assert SimConfig(workers=mcsim._MAX_WORKERS).workers == 64
        with pytest.raises(InvalidParameterError, match="workers"):
            SimConfig(workers=65)
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=-1)

    @pytest.mark.parametrize("min_errors", [0, -3])
    def test_min_errors_below_one_rejected(self, min_errors, capsys):
        # a stop at "min_errors" events below 1 came after the first block
        with pytest.raises(InvalidParameterError, match="min_errors"):
            simulate_psk_ser(TwdpParams(k=8.0, gamma=0.0), ModulationSpec(2), 10.0,
                             SimConfig(n_samples=1000), min_errors=min_errors)
        assert main(["simulate", "--k", "8", "--gamma", "0", "--snr-db", "10:10:1",
                     "--samples", "1000", "--min-errors", str(min_errors)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "min_errors must be >= 1" in err

    def test_fewer_samples_than_histogram_bins(self, capsys):
        # simulate makes no histogram, so a 5-sample run is valid
        assert main(["simulate", "--k", "1", "--samples", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.endswith(",5") for row in rows)
