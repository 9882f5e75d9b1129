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
from twdp import TwdpParams, cdf, pdf
from twdp.cli import main

from conftest import rayleigh_bpsk

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

    @pytest.mark.parametrize("spec", ["0:nan:5", "0:inf:5", "nan:10:5", "-inf:10:5", "0:10:inf"])
    def test_non_finite_snr_range_is_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "simulate", "--k", "1", f"--snr-db={spec}",
                                 "--samples", "100")
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_mgf_points(self, capsys, points):
        code, out, err = run_cli(capsys, "mgf", "--k", "1", "--points", points)
        assert (code, out) == (2, "")
        assert "points" in err

    @pytest.mark.parametrize("flags", [("--snr-step", "0"), ("--snr-step", "-2"),
                                       ("--snr-step", "nan"), ("--points", "1"),
                                       ("--samples", "0"), ("--workers", "0"),
                                       ("--seed=-1",)])
    def test_figures_checked_before_writing(self, capsys, tmp_path, flags):
        outdir = tmp_path / "figs"
        code, out, _ = run_cli(capsys, "figures", "--outdir", str(outdir),
                               "--samples", "100", *flags)
        assert (code, out) == (2, "")
        assert not outdir.exists()


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
        # the cdf terms climb to a hump near m = 600, past the 500-term budget
        code, _, err = run_cli(capsys, "cdf", "--k", "300", "--gamma", "1", "--points", "6")
        assert code == 3
        assert "did not converge in 500 terms" in err

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
        ("90", "0:0:1", 1),     # the series cancels past 120 digits
        ("300", "0:40:10", 5),  # the terms climb to a hump past the 500-term budget
    ])
    def test_asep_sweep_falls_back_per_point(self, capsys, k, snr_db, n_rows):
        code, out, _ = run_cli(capsys, "asep", "--k", k, "--gamma", "1", "--snr-db", snr_db)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == n_rows
        for row in rows:
            assert row[4] == "quadrature-fallback"
            assert row[1] == row[3]

    def test_asep_at_subnormal_snr_falls_back(self, capsys):
        # (1+K)/gamma0 overflows a double at gamma0 = 1e-320
        code, out, _ = run_cli(capsys, "asep", "--k", "3", "--gamma", "0.5",
                               "--mod-order", "16", "--snr-db=-3200:-3199:1",
                               "--method=exact")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row[2] == "quadrature-fallback"
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

    def test_package_runs_as_module(self, capsys):
        argv = ["convert", "--gamma", "0.5", "--k-rice", "2"]
        proc = subprocess.run([sys.executable, "-m", "twdp", *argv], capture_output=True,
                              env=subprocess_env(), timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.decode() == run_cli(capsys, *argv)[1]


class TestLazyMpmath:
    def test_import_leaves_mpmath_unloaded(self):
        script = ("import sys, twdp, twdp.cli; print('mpmath' in sys.modules); "
                  "twdp.asep_exact(twdp.TwdpParams(k=1, gamma=0), twdp.ModulationSpec(4), 10.0); "
                  "print('mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        # the error-rate series seeds its bracket factors in mpmath
        assert proc.stdout.decode().split() == ["False", "True"]


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
    """Only the commands that use scipy.special or scipy.integrate load them.

    Checked in a fresh interpreter, since the test modules import scipy.
    """

    LIGHT = [
        ["pdf", *_PARAMS, "--points", "21"],
        ["cdf", *_PARAMS, "--points", "21"],
        ["mgf", *_PARAMS, "--points", "11", "--method", "series"],
        ["asep", *_PARAMS, "--snr-db", "0:20:10", "--method", "exact"],
        ["simulate", *_PARAMS, "--snr-db", "0:20:10", "--samples", "2000"],
        ["convert", "--gamma", "0.5", "--k-rice", "2"],
    ]
    HEAVY = [
        (["mgf", *_PARAMS, "--points", "11", "--method", "closed"], [True, False]),
        (["asep", *_PARAMS, "--snr-db", "0:20:10", "--method", "quadrature"], [True, True]),
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
            # the same bytes as a run in this process, where scipy is loaded
            assert out == run_cli(capsys, *argv)[1]
        assert not report
