"""CLI contract: CSV shape, numeric formatting, exit codes, figure bundle."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twdp
from twdp import asep, cli, specfun
from twdp import ModulationSpec, TwdpParams, asep_quadrature, cdf, pdf
from twdp.cli import _MAX_POINTS, _parse_snr_range, _snr_axis, _sweep, main
from twdp.errors import InvalidParameterError, SeriesDivergenceError

from conftest import asep_oracle, phase_average_cdf, rayleigh_bpsk

FLOAT_CELL = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestConvert:
    def test_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--gamma", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma", "delta"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_point_six(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--gamma", "0.6")
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.2 / 1.36, rel=1e-12, abs=0)

    def test_delta_with_k_rice(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--delta", "0.5", "--k-rice", "1")
        header, rows = parse_csv(out)
        assert header == ["gamma", "delta", "k_rice", "k"]
        # K = K_rice 2 (1 - sqrt(1 - Delta^2)) / Delta^2
        expect = 2 * (1 - math.sqrt(0.75)) / 0.25
        assert float(rows[0][3]) == pytest.approx(expect, rel=1e-12, abs=0)

    def test_conflicting_flags_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--gamma", "0.5", "--delta", "0.5")
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("flags", [("--gamma", "0.5", "--k-rice", "nan"),
                                       ("--gamma", "0.5", "--k-rice", "inf"),
                                       ("--gamma", "1", "--k-rice", "1e308"),
                                       ("--delta", "1", "--k-rice", "1e308")])
    def test_non_finite_k_is_usage_error(self, capsys, flags):
        # a non-finite K_rice, and one whose K overflows double
        code, out, err = run_cli(capsys, "convert", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestCurveCommands:
    def test_pdf_matches_rayleigh(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--k", "0", "--gamma", "0",
                               "--points", "40", "--rmax", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "y", "terms_used"]
        sigma2 = 0.5  # default normalization at K = 0
        grid = np.linspace(0.0, 3.0, 40)  # CSV x is rounded; rebuild the grid
        for row, x in zip(rows, grid):
            assert float(row[0]) == pytest.approx(float(x), rel=1e-12, abs=1e-13)
            ref = x / sigma2 * math.exp(-x * x / (2 * sigma2))
            assert float(row[1]) == pytest.approx(ref, rel=1e-11, abs=1e-14)

    def test_pdf_normalized_curve_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--k", "8", "--gamma", "0.5",
                               "--points", "20", "--rmax", "2.5")
        _, rows = parse_csv(out)
        p = TwdpParams(k=8.0, gamma=0.5)
        grid = np.linspace(0.0, 2.5, 20)
        for row, x in zip(rows, grid):
            assert float(row[1]) == pytest.approx(pdf(p, float(x)).value, rel=1e-11, abs=1e-14)

    @pytest.mark.parametrize("which", ["pdf", "cdf"])
    def test_normalized_axis_away_from_unit_power(self, capsys, which):
        # Omega = 2 sigma2 (1 + K) = 36: the normalized x is r / 6, and the
        # pdf is rescaled to that axis, 6 f_R(6 x); --no-normalized takes x as r
        p = TwdpParams(k=8.0, gamma=0.5, sigma2=2.0)
        f, scale = (pdf, 6.0) if which == "pdf" else (cdf, 1.0)
        argv = (which, "--k", "8", "--gamma", "0.5", "--sigma2", "2", "--points", "6",
                "--rmax", "2.5")
        _, normalized = parse_csv(run_cli(capsys, *argv)[1])
        _, raw = parse_csv(run_cli(capsys, *argv, "--no-normalized")[1])
        for x, row, raw_row in zip(np.linspace(0.0, 2.5, 6), normalized, raw):
            assert float(row[1]) == pytest.approx(scale * f(p, 6.0 * x).value, rel=1e-11, abs=0)
            assert float(raw_row[1]) == pytest.approx(f(p, x).value, rel=1e-11, abs=0)

    def test_pdf_far_upper_tail_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--k", "14", "--gamma", "1", "--rmax", "1e6",
                               "--points", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(row[1]) for row in rows] == [0.0] * 3

    def test_cdf_reaches_one(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--k", "14", "--gamma", "1",
                               "--points", "60", "--rmax", "4")
        _, rows = parse_csv(out)
        assert abs(float(rows[-1][1]) - 1.0) <= 1e-6
        ys = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_ascending_x_and_formatting(self, capsys):
        _, out, _ = run_cli(capsys, "cdf", "--k", "2", "--gamma", "0.25", "--points", "10")
        _, rows = parse_csv(out)
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        for row in rows:
            assert FLOAT_CELL.match(row[0]), row[0]
            assert FLOAT_CELL.match(row[1]) or row[1] == "0.000000000000e+00"
            assert re.match(r"^\d+$", row[2])

    def test_mgf_columns(self, capsys):
        code, out, _ = run_cli(capsys, "mgf", "--k", "8", "--gamma", "0.5",
                               "--gamma0-db", "10", "--smin", "-4", "--smax", "0",
                               "--points", "5", "--method", "both")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s", "mgf_series", "terms_used", "mgf_closed"]
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[3]), rel=1e-10, abs=0)

    def test_delta_flag_equivalent_to_gamma(self, capsys):
        _, out_d, _ = run_cli(capsys, "cdf", "--k", "6", "--delta", "0.8", "--points", "8")
        _, out_g, _ = run_cli(capsys, "cdf", "--k", "6", "--gamma", "0.5", "--points", "8")
        assert out_d == out_g

    def test_gamma_delta_conflict_is_usage_error(self, capsys):
        # argparse mutual exclusion exits with the usage status
        with pytest.raises(SystemExit) as err:
            main(["pdf", "--k", "1", "--gamma", "0.5", "--delta", "0.5"])
        assert err.value.code == 2

    def test_negative_sigma2_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "pdf", "--k", "1", "--gamma", "0",
                                 "--points", "3", "--sigma2=-1")
        assert code == 2 and out == "" and "sigma2" in err


class TestParser:
    """main builds its parser once per process, and the parser carries
    nothing from one call to the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_alternating_calls_print_what_fresh_calls_print(self, capsys):
        argvs = [("cdf", "--k", "6", "--gamma", "0.5", "--points", "4"),
                 ("cdf", "--k", "6", "--delta", "0.3", "--points", "4"),
                 ("pdf", "--k", "8", "--sigma2", "2", "--points", "4", "--no-normalized"),
                 ("pdf", "--k", "8", "--sigma2", "2", "--points", "4")]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert len({out for _, out, _ in fresh}) == len(argvs)
        for _ in range(2):
            assert [run_cli(capsys, *argv) for argv in argvs] == fresh


class TestAsepCommand:
    def test_methods_consistent_at_high_snr(self, capsys):
        code, out, _ = run_cli(capsys, "asep", "--k", "0", "--gamma", "0",
                               "--mod-order", "2", "--snr-db", "0:40:5",
                               "--method", "all")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["snr_db", "exact", "asymptotic", "quadrature", "method_tag"]
        for row in rows:
            db = float(row[0])
            exact, asym, quad = (float(v) for v in row[1:4])
            assert exact == pytest.approx(rayleigh_bpsk(10 ** (db / 10)), rel=1e-10, abs=0)
            assert exact == pytest.approx(quad, rel=1e-8, abs=0)
            if db >= 30:
                assert asym == pytest.approx(exact, rel=0.05, abs=0)
            assert row[4] == "exact"

    def test_single_method_column(self, capsys):
        code, out, _ = run_cli(capsys, "asep", "--k", "8", "--gamma", "0.5",
                               "--mod-order", "16", "--snr-db", "10:20:10",
                               "--method", "asymptotic")
        header, rows = parse_csv(out)
        assert header == ["snr_db", "asymptotic"]
        assert len(rows) == 2

    def test_bad_snr_range(self, capsys):
        code, _, err = run_cli(capsys, "asep", "--k", "1", "--snr-db", "10:0:5")
        assert code == 2


class TestSweepValidation:
    """Sweeps end at or before their stop, and bad sizes fail before any work."""

    @pytest.mark.parametrize("spec,last,rows", [
        ("0:11:4", 8.0, 3),
        ("0:0.3:0.1", 0.3, 4),
        ("0:40:0.1", 40.0, 401),
    ])
    def test_snr_range_stops_at_its_stop(self, capsys, spec, last, rows):
        code, out, err = run_cli(capsys, "asep", "--k", "1", "--snr-db", spec,
                                 "--method", "asymptotic")
        assert code == 0, err
        _, body = parse_csv(out)
        assert len(body) == rows
        assert float(body[-1][0]) == last

    # the last has finite bounds but more points than a float can count
    @pytest.mark.parametrize("spec", ["0:nan:5", "0:inf:5", "nan:10:5", "-inf:10:5", "0:10:inf",
                                      "0:1e300:1e-300"])
    def test_non_finite_snr_range_is_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "simulate", "--k", "1", f"--snr-db={spec}",
                                 "--samples", "100")
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize("argv,flag", [
        (("pdf", "--rmax", "inf"), "finite"),
        (("mgf", "--smin=-inf"), "finite"),
        (("pdf", "--sigma2", "1e300", "--rmax", "1e300"), "--rmax"),
        (("cdf", "--sigma2", "1e300", "--rmax", "1e300"), "--rmax"),
    ])
    def test_grid_past_the_double_range_is_usage_error(self, capsys, argv, flag):
        # refused before the grid is built or scaled, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--k", "1")
        assert (code, out) == (2, "")
        assert flag in err

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_mgf_points(self, capsys, points):
        code, out, err = run_cli(capsys, "mgf", "--k", "1", "--points", points)
        assert (code, out) == (2, "")
        assert "points" in err

    @pytest.mark.parametrize("argv", [
        ("asep", "--k", "1", "--snr-db", "0:1e20:1"),
        ("simulate", "--k", "1", "--snr-db", "0:1e20:1", "--samples", "100"),
        ("pdf", "--k", "1", "--points", str(_MAX_POINTS + 1)),
        ("mgf", "--k", "1", "--points", str(_MAX_POINTS + 1)),
    ])
    def test_grid_past_the_point_bound_is_usage_error(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert str(_MAX_POINTS) in err

    def test_point_bound_is_inclusive(self):
        assert len(_parse_snr_range(f"0:{_MAX_POINTS - 1}:1")) == _MAX_POINTS
        assert len(_sweep(0.0, 1.0, _MAX_POINTS)) == _MAX_POINTS
        with pytest.raises(InvalidParameterError):
            _parse_snr_range(f"0:{_MAX_POINTS}:1")

    @pytest.mark.parametrize("flags", [("--snr-step", "0"), ("--snr-step", "-2"),
                                       ("--snr-step", "nan"), ("--points", "1"),
                                       ("--samples", "0"), ("--workers", "0"),
                                       ("--workers", "65"),
                                       ("--seed=-1",), ("--snr-step", "1e-20")])
    def test_figures_checked_before_writing(self, capsys, tmp_path, flags):
        outdir = tmp_path / "figs"
        code, out, _ = run_cli(capsys, "figures", "--outdir", str(outdir),
                               "--samples", "100", *flags)
        assert (code, out) == (2, "")
        assert not outdir.exists()

    @pytest.mark.parametrize("step", ["0", "nan", "1e-20"])
    def test_figures_snr_step_error_names_the_flag(self, capsys, tmp_path, step):
        code, _, err = run_cli(capsys, "figures", "--outdir", str(tmp_path / "figs"),
                               "--snr-step", step)
        assert code == 2 and "--snr-step" in err

    @pytest.mark.parametrize("step", [2, 0.5, 5, 0.3, 0.1, 3, 7, 40, 1.5, 0.7, 0.01])
    def test_figures_snr_axis_is_the_sweep_rule(self, step):
        # the figures' SNR axis comes from the --snr-db rule, and is the
        # np.arange(0, 40 + 1e-9, step) axis that it replaced
        axis = _snr_axis(0.0, 40.0, step, "--snr-step")
        assert np.array_equal(axis, _parse_snr_range(f"0:40:{step!r}"))
        assert np.array_equal(axis, np.arange(0.0, 40.0 + 1e-9, step))


class TestNegativeValues:
    """A value starting with `-` may follow its flag as a separate token."""

    @pytest.mark.parametrize("argv,first_x", [
        (("asep", "--k", "8", "--gamma", "0.5", "--snr-db", "-10:10:5",
          "--method", "quadrature"), -10.0),
        (("simulate", "--k", "8", "--gamma", "0", "--snr-db", "-10:0:10",
          "--samples", "2000", "--seed", "3"), -10.0),
        (("mgf", "--k", "1", "--gamma", "0", "--smin", "-1e6", "--smax", "-.5",
          "--points", "3"), -1e6),
    ])
    def test_same_output_as_equals_form(self, capsys, argv, first_x):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == first_x
        joined = []
        for tok in argv:
            if tok.startswith("-") and not tok.startswith("--"):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        assert run_cli(capsys, *joined) == (0, out, "")


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--k", "8", "--gamma", "0", "--mod-order", "2",
                "--snr-db", "10:10:1", "--samples", "100000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out2, _ = run_cli(capsys, *args, "--workers", "1")
        _, out3, _ = run_cli(capsys, *args, "--workers", "6")
        assert out1 == out2 == out3

    @pytest.mark.parametrize("workers", ["65", "100000"])
    def test_workers_outside_their_bound_start_no_thread(self, capsys, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("worker pool started")

        monkeypatch.setattr(twdp.mcsim, "ThreadPoolExecutor", refuse)
        code, out, err = run_cli(capsys, "simulate", "--k", "1", "--snr-db", "10:10:1",
                                 "--samples", "10000000000", "--workers", workers)
        assert (code, out) == (2, "")
        assert "workers" in err

    def test_ci_covers_analytic(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--k", "0", "--gamma", "0",
                            "--mod-order", "2", "--snr-db", "10:10:1",
                            "--samples", "1000000", "--seed", "3")
        _, rows = parse_csv(out)
        ser, ci = float(rows[0][1]), float(rows[0][2])
        assert abs(ser - rayleigh_bpsk(10.0)) <= 2 * ci

    def test_extreme_snr_stays_finite(self, capsys):
        # sqrt(2 gamma0) scales the fading amplitude: at -3200 dB (gamma0 a
        # subnormal 1e-320) every symbol is a guess, at 3000 dB none errs
        argv = ("simulate", "--k", "1", "--mod-order", "16", "--samples", "200000")
        code, out, _ = run_cli(capsys, *argv, "--snr-db=-3200:-3200:1")
        assert code == 0
        _, rows = parse_csv(out)
        ser, trials = float(rows[0][1]), int(rows[0][4])
        assert abs(ser - 15 / 16) <= 6 * math.sqrt(15 / 256 / trials)
        code, out, _ = run_cli(capsys, *argv, "--snr-db=3000:3000:1")
        assert code == 0
        _, rows = parse_csv(out)
        assert int(rows[0][3]) == 0


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    code = main(["figures", "--outdir", str(outdir), "--points", "201",
                 "--samples", "20000", "--seed", "1", "--snr-step", "10"])
    assert code == 0
    return outdir


class TestFigures:

    def test_file_inventory(self, bundle):
        names = sorted(f.name for f in bundle.iterdir())
        csvs = [n for n in names if n.endswith(".csv")]
        assert len(csvs) == 10
        assert names == sorted(csvs + ["manifest.json"])
        expected = {"fig1.csv", "fig2.csv", "fig3a.csv", "fig3b.csv",
                    "fig4a.csv", "fig4b.csv", "fig4c.csv", "fig4d.csv",
                    "fig6a.csv", "fig6b.csv"}
        assert set(csvs) == expected

    def test_manifest_records_parameters(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert "fig4a.csv" in manifest["figures"]
        assert manifest["figures"]["fig4a.csv"]["m_order"] == 2
        assert manifest["figures"]["fig3a.csv"]["max_terms_used"] > 0

    def test_pdf_columns_integrate_to_one(self, bundle):
        lines = (bundle / "fig3a.csv").read_text().splitlines()
        header = lines[0].split(",")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        x = data[:, 0]
        for col in range(1, len(header)):
            integral = np.trapezoid(data[:, col], x)
            assert integral == pytest.approx(1.0, abs=1e-3)

    def test_quadrature_fallbacks_by_snr_then_set(self, tmp_path, capsys, monkeypatch):
        # with the mixture's budget cut to 10 terms inside the error-rate
        # grids, every point they rescue falls back: the manifest lists each
        # one, by SNR and then by set, and its exact cell holds the quadrature
        real = cli.asep_exact_grid

        def tight(p, mod, gamma0s):
            with monkeypatch.context() as m:
                m.setattr(specfun, "_MIX_MAX_TERMS", 10)
                return real(p, mod, gamma0s)

        monkeypatch.setattr(cli, "asep_exact_grid", tight)
        # two sets that fall back, around one that does not
        monkeypatch.setattr(cli, "FIGURE_SETS", ((14.0, 1.0, "k14_g1"), (0.0, 0.0, "k0_g0"),
                                                 (20.0, 1.0, "k20_g1")))
        code, _, _ = run_cli(capsys, "figures", "--outdir", str(tmp_path), "--points", "11",
                             "--samples", "2000", "--snr-step", "10")
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        snrs = [0.0, 10.0, 20.0, 30.0, 40.0]
        for m_order, fname in ((2, "fig4a.csv"), (16, "fig4d.csv")):
            mod, gamma0s = ModulationSpec(m_order), [10.0 ** (db / 10.0) for db in snrs]
            grids = [tight(TwdpParams(k=k, gamma=g), mod, gamma0s) for k, g, _ in cli.FIGURE_SETS]
            want = [{"snr_db": db, "set": tag} for i, db in enumerate(snrs)
                    for (_, _, tag), grid in zip(cli.FIGURE_SETS, grids) if i in grid.lost]
            assert {fell["set"] for fell in want} == {"k14_g1", "k20_g1"}
            assert manifest["figures"][fname]["quadrature_fallbacks"] == want
            _, rows = parse_csv((tmp_path / fname).read_text())
            for j, ((k, g, _), grid) in enumerate(zip(cli.FIGURE_SETS, grids)):
                for i, (row, gamma0) in enumerate(zip(rows, gamma0s)):
                    want = (asep_quadrature(TwdpParams(k=k, gamma=g), mod, gamma0)
                            if i in grid.lost else grid[i].value)
                    assert row[1 + 4 * j] == "%.12e" % want

    def test_fig6_delta_curves_cluster(self, bundle):
        lines = (bundle / "fig6a.csv").read_text().splitlines()
        header = lines[0].split(",")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        # columns for delta <= 0.5 sit nearly on top of each other while the
        # gamma-parameterized family spreads out; compare relative spans
        keep = {f"asep_delta_{v:g}" for v in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)}
        low = [i for i, h in enumerate(header) if h in keep]
        assert len(low) == 6
        row = data[-1]  # highest SNR row
        cluster = max(row[i] for i in low) / min(row[i] for i in low)

        lines_b = (bundle / "fig6b.csv").read_text().splitlines()
        data_b = np.array([[float(v) for v in ln.split(",")] for ln in lines_b[1:]])
        row_b = data_b[-1][1:]
        spread = max(row_b) / min(row_b)
        assert cluster < 6.0 < spread / 5.0
        assert spread > 30.0

    def test_columns_are_the_subcommands_output(self, bundle, capsys):
        # one set per figure: each column, as text, is what its subcommand
        # prints for the same set, grid and seed
        def column(fname, name):
            header, rows = parse_csv((bundle / fname).read_text())
            return [row[header.index(name)] for row in rows]

        def cli_columns(*argv):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            return list(zip(*parse_csv(out)[1]))

        curve = ("--points", "201", "--rmax", "3.5")
        assert column("fig3a.csv", "pdf_k14_g1") == list(
            cli_columns("pdf", "--k", "14", "--gamma", "1", *curve)[1])
        assert column("fig3b.csv", "cdf_k8_g05") == list(
            cli_columns("cdf", "--k", "8", "--gamma", "0.5", *curve)[1])

        rate = ("--k", "8", "--gamma", "0", "--mod-order", "16", "--snr-db", "0:40:10")
        _, exact, asym, _, _ = cli_columns("asep", *rate, "--method", "all")
        assert column("fig4d.csv", "exact_k8_g0") == list(exact)
        assert column("fig4d.csv", "asym_k8_g0") == list(asym)
        _, ser, ci95, _, _ = cli_columns("simulate", *rate, "--samples", "20000", "--seed", "1")
        assert column("fig4d.csv", "sim_k8_g0") == list(ser)
        assert column("fig4d.csv", "sim_ci95_k8_g0") == list(ci95)

        _, family, _ = cli_columns("asep", "--k", "6", "--delta", "0.3", "--mod-order", "2",
                                   "--snr-db", "0:40:10", "--method", "exact")
        assert column("fig6a.csv", "asep_delta_0.3") == list(family)

    def test_fig1_matches_conversions(self, bundle):
        lines = (bundle / "fig1.csv").read_text().splitlines()
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        x, delta, gamma = data[:, 0], data[:, 1], data[:, 2]
        assert np.allclose(gamma, x, atol=0)
        assert np.all(np.diff(delta) > 0)
        assert np.all(delta[1:-1] > x[1:-1])


class TestExitCodes:
    def test_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "figures", "--outdir", str(blocker / "x"),
                               "--points", "10", "--samples", "100")
        assert code == 5

    def test_usage_error_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "pdf", "--k", "-2", "--gamma", "0")
        assert code == 2

    def test_series_failure_exit(self, capsys):
        # the cdf terms climb to a hump near m = 6,000, past the paper's
        # 500-term budget, and the mixture would need more than its 5,000
        code, _, err = run_cli(capsys, "cdf", "--k", "3000", "--gamma", "1", "--points", "6")
        assert code == 3
        assert "did not converge in 5000 terms" in err

    def test_quadrature_failure_exit(self, capsys, monkeypatch):
        # a point whose partition would pass the quadrature's panel budget
        monkeypatch.setattr(asep, "_PANEL_LIMIT", 5)
        code, out, err = run_cli(capsys, "asep", "--k", "1e13", "--gamma", "0.5",
                                 "--mod-order", "64", "--snr-db", "0:0:1", "--method", "quadrature")
        assert (code, out) == (4, "")
        assert err == ("error: asep quadrature at K=10000000000000.0, Gamma=0.5, gamma0=1.0 "
                       "needs more than 5 panels past its breakpoints\n")

    def test_pdf_failure_names_a_point_that_fails_alone(self, capsys):
        # at K = 1600, Gamma = 1 only r/sqrt(Omega) near 2.02-2.10 is past
        # the mixture's budget on its own; the points rescued with it sum
        code, out, err = run_cli(capsys, "pdf", "--k", "1600", "--gamma", "1")
        assert (code, out) == (3, "")
        r = float(re.search(r"envelope pdf at r=(\S+) did not converge in 5000 terms", err)[1])
        assert 2.0 < r < 2.1
        with pytest.raises(SeriesDivergenceError, match="did not converge in 5000 terms"):
            pdf(TwdpParams(k=1600.0, gamma=1.0), r)

    def test_mgf_series_past_its_budget_points_to_the_closed_form(self, capsys):
        # --method both (the default) needs the series at every point: past
        # the mixture's budget it exits 3, and the message names --method
        # closed, which gives the closed form there
        argv = ("mgf", "--k", "1e10", "--gamma", "0", "--points", "3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("error: mgf series at s=-10.0 did not converge in 5000 terms; "
                       "--method closed gives the closed form there\n")
        code, out, err = run_cli(capsys, *argv, "--method", "closed")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert header == ["s", "mgf_closed"] and len(rows) == 3
        assert rows[0][1] == "3.720079696099e-44"

    def test_pdf_past_the_bessel_ladder_exit(self, capsys):
        # b1 r = 2e10 at r = 1 is past the ladder's 1e7: a valid input that
        # no series can sum
        code, out, err = run_cli(capsys, "pdf", "--k", "1e10", "--gamma", "0", "--rmax", "1",
                                 "--points", "2")
        assert (code, out) == (3, "")
        assert "cannot be summed" in err

    def test_cdf_past_the_paper_term_budget(self, capsys):
        # r/sqrt(Omega) <= 0.3 at K = 90, Gamma = 1 climbs to a hump past the
        # paper's 500 terms; the mixture gives the whole curve
        code, out, _ = run_cli(capsys, "cdf", "--k", "90", "--gamma", "1", "--points", "401")
        assert code == 0
        _, rows = parse_csv(out)
        p = TwdpParams(k=90.0, gamma=1.0)
        x, y = np.array([[float(row[0]), float(row[1])] for row in rows]).T
        ref = phase_average_cdf(p, x * math.sqrt(p.omega))
        assert y == pytest.approx(ref, rel=1e-11, abs=0)

    @pytest.mark.parametrize("argv", [
        ("mgf", "--k", "1", "--gamma0-db", "4000"),
        ("simulate", "--k", "1", "--snr-db", "3990:4000:10"),
        ("asep", "--k", "1", "--snr-db", "3990:4000:10"),
    ])
    def test_snr_past_the_double_range_is_usage_error(self, capsys, argv):
        # 10^(dB/10) overflows a double beyond about 3083 dB
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--tol=1e-6", "--max-terms=2000"])
    def test_stopping_rule_is_not_an_option(self, flag):
        with pytest.raises(SystemExit) as err:
            main(["cdf", "--k", "8", "--gamma", "0.5", "--points", "6", flag])
        assert err.value.code == 2

    @pytest.mark.parametrize("k,snr_db,n_rows", [
        ("2500", "0:0:1", 1),   # the mixture would need 5,748 terms, past its 5,000
        ("1e4", "0:40:10", 5),  # and here 21,455
    ])
    def test_asep_sweep_falls_back_per_point(self, capsys, k, snr_db, n_rows):
        code, out, _ = run_cli(capsys, "asep", "--k", k, "--gamma", "1", "--snr-db", snr_db)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == n_rows
        for row in rows:
            assert row[4] == "quadrature-fallback"
            assert row[1] == row[3]

    def test_asep_sweep_mixes_exact_and_fallback_rows(self, capsys, monkeypatch):
        # with the mixture's budget cut to 10 terms, the points the
        # long-double pass cannot vouch for fall back, each on its own row
        monkeypatch.setattr(specfun, "_MIX_MAX_TERMS", 10)
        p, mod = TwdpParams(k=14.0, gamma=1.0), ModulationSpec(16)
        snrs = [0.0, 10.0, 20.0, 30.0, 40.0]
        lost = asep.asep_exact_grid(p, mod, [10.0 ** (db / 10.0) for db in snrs]).lost
        code, out, _ = run_cli(capsys, "asep", "--k", "14", "--gamma", "1", "--mod-order", "16",
                               "--snr-db", "0:40:10")
        assert code == 0
        _, rows = parse_csv(out)
        assert sorted(lost) == [1, 2, 3, 4]
        assert [row[4] for row in rows] == [
            "quadrature-fallback" if i in lost else "exact" for i in range(5)]
        for i, row in enumerate(rows):
            if i in lost:
                assert row[1] == row[3]
            else:
                assert float(row[1]) == pytest.approx(float(row[3]), rel=1e-8, abs=0)

    def test_asep_at_huge_k_falls_back_without_warnings(self, capsys):
        # the paper's coefficients overflow long double within its 500
        # terms at K = 1e13: unconverged, past the mixture's budget, so
        # quadrature, which sees the MGF at its full accuracy and holds each
        # value to its relative tolerance alone: 1.04e-45 at 20 dB
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "asep", "--k", "1e13", "--gamma", "0",
                                   "--snr-db", "10:20:10", "--method", "exact")
        assert code == 0
        _, rows = parse_csv(out)
        p = TwdpParams(k=1e13, gamma=0.0)
        for row in rows:
            assert row[2] == "quadrature-fallback"
            assert float(row[1]) == pytest.approx(
                asep_oracle(p, 2, 10.0 ** (float(row[0]) / 10.0)), rel=1e-10, abs=0)

    @pytest.mark.parametrize("k", ["1e10", "1e13", "1e300"])
    @pytest.mark.parametrize("gamma", ["0", "1"])
    @pytest.mark.parametrize("argv", [("pdf", "--points", "5"), ("cdf", "--points", "5"),
                                      ("mgf", "--points", "3"),
                                      ("asep", "--method", "all", "--snr-db", "0:20:10")])
    def test_domain_edge_exits_cleanly(self, capsys, argv, k, gamma):
        # at huge K a subcommand gives its values, or says that a series
        # cannot give them (exit 3); it never crashes or warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv, "--k", k, "--gamma", gamma)
        assert code in (0, 3), err

    def test_asep_past_the_paper_term_budget_is_exact(self, capsys):
        # the paper's series runs out of terms at K = 90, Gamma = 1 and 0 dB;
        # the mixture gives every row
        code, out, _ = run_cli(capsys, "asep", "--k", "90", "--gamma", "1", "--mod-order", "2",
                               "--snr-db", "0:40:10", "--method", "exact")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[2] for row in rows] == ["exact"] * 5
        p, mod = TwdpParams(k=90.0, gamma=1.0), ModulationSpec(2)
        for row in rows:
            ref = asep_quadrature(p, mod, 10.0 ** (float(row[0]) / 10.0))
            assert float(row[1]) == pytest.approx(ref, rel=1e-9, abs=0)

    def test_asep_at_subnormal_snr_is_summed(self, capsys):
        # (1+K)/gamma0 is past the double range at gamma0 = 1e-320, not the
        # long double one: the series sums it
        code, out, _ = run_cli(capsys, "asep", "--k", "3", "--gamma", "0.5",
                               "--mod-order", "16", "--snr-db=-3200:-3199:1",
                               "--method=exact")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row[2] == "exact"
            assert float(row[1]) == pytest.approx(15 / 16, rel=0, abs=1e-8)

    @pytest.mark.parametrize("method", ["asymptotic", "all"])
    def test_asep_asymptote_past_the_double_range_is_usage_error(self, capsys, method):
        # the asymptote grows like 1/gamma0 and overflows a double at 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "asep", "--k", "3", "--gamma", "0.5",
                                     "--mod-order", "16", "--snr-db=-3200:-3199:1",
                                     f"--method={method}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "overflows double" in err


def subprocess_env():
    """The environment for a fresh interpreter that imports this twdp."""
    src = str(Path(twdp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestSubprocess:
    @staticmethod
    def start(*argv, stderr):
        return subprocess.Popen([sys.executable, "-m", "twdp.cli", *argv],
                                stdout=subprocess.PIPE, stderr=stderr, env=subprocess_env())

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # 20,000 rows overflow any pipe buffer, so writes must outlive the reader
        with open(tmp_path / "err", "w+b") as err:
            proc = self.start("pdf", "--k", "0", "--points", "20000", stderr=err)
            assert proc.stdout.readline() == b"x,y,terms_used\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
            err.seek(0)
            assert err.read() == b""

    def test_rescue_prints_nothing_by_default(self):
        proc = self.start("asep", "--k", "14", "--gamma", "1", "--snr-db", "20:20:1",
                          "--method", "exact", stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        assert out.decode().splitlines()[1].endswith(",exact")

    def test_unconverged_series_prints_nothing(self):
        # at K = 1e6 the error-rate series runs out of terms with a partial
        # sum past the double range; the point falls back without a warning
        proc = self.start("asep", "--k", "1e6", "--gamma", "0", "--snr-db", "10:10:1",
                          "--method", "exact", stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        assert out.decode().splitlines()[1].endswith(",quadrature-fallback")

    def test_package_runs_as_module(self, capsys):
        argv = ["convert", "--gamma", "0.5", "--k-rice", "2"]
        proc = subprocess.run([sys.executable, "-m", "twdp", *argv], capture_output=True,
                              env=subprocess_env(), timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.decode() == run_cli(capsys, *argv)[1]


# whether mpmath is in sys.modules after each step, printed one per line
_NO_MPMATH_SCRIPT = """
import contextlib, io, sys
import twdp, twdp.cli
print("mpmath" in sys.modules)
for m_order in (4, 16):
    twdp.asep_exact(twdp.TwdpParams(k=1, gamma=0), twdp.ModulationSpec(m_order), 10.0)
    print("mpmath" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = twdp.cli.main(["asep", "--k", "8", "--gamma", "0.5", "--mod-order", "16",
                          "--method", "all"])
print(code, "mpmath" in sys.modules)
"""


class TestLazyMpmath:
    def test_import_leaves_mpmath_unloaded(self):
        # mpmath never loads: it is a test-only dependency, and the error-rate
        # series seeds its bracket factors in long double
        proc = subprocess.run([sys.executable, "-c", _NO_MPMATH_SCRIPT], capture_output=True,
                              env=subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == ["False", "False", "False", "0", "False"]


# scipy.special and scipy.integrate in sys.modules after each step, printed
# as JSON with the stdout of the commands that load them
_LAZY_SCIPY_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return [name in sys.modules for name in ("scipy.special", "scipy.integrate")]

light, heavy = json.loads(sys.argv[1])
import twdp
report = {"import twdp": loaded()}
import twdp.cli
report["import twdp.cli"] = loaded()
for argv in light + heavy:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = twdp.cli.main(argv)
    report[" ".join(argv)] = [code, loaded(), out.getvalue()]
print(json.dumps(report))
"""

_PARAMS = ["--k", "8", "--gamma", "0.5"]


class TestLazyScipy:
    """Only the commands that use scipy.special load it, and none loads
    scipy.integrate.

    Checked in a fresh interpreter, since the test modules import scipy.
    """

    LIGHT = [
        ["pdf", *_PARAMS, "--points", "21"],
        ["cdf", *_PARAMS, "--points", "21"],
        ["mgf", *_PARAMS, "--points", "11", "--method", "series"],
        ["asep", *_PARAMS, "--snr-db", "0:20:10", "--method", "exact"],
        # points rescued by the mixture, which is numpy alone
        ["pdf", "--k", "14", "--gamma", "1", "--points", "21"],
        ["cdf", "--k", "14", "--gamma", "1", "--points", "21"],
        ["mgf", "--k", "40", "--gamma", "0", "--points", "11", "--method", "series"],
        ["asep", "--k", "14", "--gamma", "1", "--mod-order", "16", "--snr-db", "0:20:10",
         "--method", "exact"],
        ["simulate", *_PARAMS, "--snr-db", "0:20:10", "--samples", "2000"],
        ["convert", "--gamma", "0.5", "--k-rice", "2"],
    ]
    HEAVY = [
        (["mgf", *_PARAMS, "--points", "11", "--method", "closed"], [True, False]),
        (["asep", *_PARAMS, "--snr-db", "0:20:10", "--method", "quadrature"], [True, False]),
    ]

    def test_scipy_submodules_load_on_first_use(self, capsys):
        heavy = [argv for argv, _ in self.HEAVY]
        proc = subprocess.run(
            [sys.executable, "-c", _LAZY_SCIPY_SCRIPT, json.dumps([self.LIGHT, heavy])],
            capture_output=True, env=subprocess_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        report = json.loads(proc.stdout)
        assert report.pop("import twdp") == [False, False]
        assert report.pop("import twdp.cli") == [False, False]
        for argv in self.LIGHT:
            code, loaded, _ = report.pop(" ".join(argv))
            assert (code, loaded) == (0, [False, False]), argv
        for argv, want in self.HEAVY:
            code, loaded, out = report.pop(" ".join(argv))
            assert (code, loaded) == (0, want), argv
            assert not loaded[1], f"{argv} loads scipy.integrate"
            # the same bytes as a run in this process, where scipy is loaded
            assert out == run_cli(capsys, *argv)[1]
        assert not report
