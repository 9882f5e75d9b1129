"""Command-line front end emitting CSV curve data.

Subcommands: pdf, cdf, mgf, asep, simulate, convert, figures.  Numeric CSV
cells use %.12e formatting, header rows are always present, and rows are
ordered by ascending x.  Average SNR is accepted in dB on every flag and
converted to the library's linear gamma0 in one place, _snr_linear.

Exit codes: 0 success, 2 usage error, 3 series convergence/cancellation
failure, 4 quadrature failure, 5 I/O failure, 1 stdout closed early (as by
`| head`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import dist, mcsim, params
from .asep import ModulationSpec, asep_asymptotic, asep_exact_grid, asep_quadrature
from .errors import (
    CancellationLossError,
    InvalidParameterError,
    QuadratureError,
    SeriesDivergenceError,
)
from .mgf import mgf_closed, mgf_series_grid
from .params import TwdpParams

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_SERIES = 3
EXIT_QUADRATURE = 4
EXIT_IO = 5

# the four parameter sets used throughout the figure reproductions
FIGURE_SETS = (
    (0.0, 0.0, "k0_g0"),
    (8.0, 0.0, "k8_g0"),
    (8.0, 0.5, "k8_g05"),
    (14.0, 1.0, "k14_g1"),
)


@dataclass(frozen=True)
class SweepGrid:
    """Uniform sweep specification for one CSV x-axis."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise InvalidParameterError(f"points must be >= 2, got {self.points}")
        if not self.start < self.stop:
            raise InvalidParameterError("grid start must be below stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12e" % float(v)


def _write_csv(header, rows, out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _params_from_args(args) -> TwdpParams:
    gamma = args.gamma
    if args.delta is not None:
        gamma = params.gamma_from_delta(args.delta)
    if gamma is None:
        gamma = 0.0
    if args.sigma2 is not None:
        return TwdpParams(k=args.k, gamma=gamma, sigma2=args.sigma2)
    return TwdpParams(k=args.k, gamma=gamma)


def _add_param_flags(sp, k_required=True):
    sp.add_argument("--k", type=float, required=k_required,
                    help="specular-to-diffuse power ratio K")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--gamma", type=float, default=None,
                       help="specular magnitude ratio V2/V1 in [0, 1]")
    group.add_argument("--delta", type=float, default=None,
                       help="legacy parameter Delta in [0, 1] (converted to Gamma)")
    sp.add_argument("--sigma2", type=float, default=None,
                    help="diffuse half power; default normalizes total power to 1")


def _parse_snr_range(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise InvalidParameterError(
            f"--snr-db expects from:to:step, got {spec!r}"
        ) from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidParameterError(f"--snr-db bounds must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise InvalidParameterError(f"bad --snr-db range {spec!r}")
    # a float step that reaches the stop may count one step short of it
    # (0.3 / 0.1 < 3) or overshoot it (3 * 0.1 > 0.3): allow for both
    n = math.floor((stop - start) / step * (1 + 1e-9)) + 1
    return np.minimum(start + step * np.arange(n), stop)


def _snr_linear(db) -> float:
    """The linear average SNR gamma0 = 10^(dB/10) of an SNR in dB; one past
    the double range is a usage error."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise InvalidParameterError(
            f"an SNR of {float(db):g} dB overflows as a linear value") from None


# ----------------------------------------------------------------------------
# subcommands


def _cmd_pdf_cdf(args, which: str, out) -> int:
    p = _params_from_args(args)
    scale = math.sqrt(p.omega) if args.normalized else 1.0
    xs = SweepGrid(0.0, args.rmax, args.points).values()
    if which == "pdf":
        rows = [(x, res.value * scale, res.terms_used)
                for x, res in zip(xs, dist.pdf_grid(p, xs * scale))]
    else:
        rows = [(x, res.value, res.terms_used)
                for x, res in zip(xs, dist.cdf_grid(p, xs * scale))]
    _write_csv(["x", "y", "terms_used"], rows, out)
    return EXIT_OK


def _cmd_mgf(args, out) -> int:
    p = _params_from_args(args)
    gamma0 = _snr_linear(args.gamma0_db)
    if args.smin >= args.smax or args.smax > 0:
        raise InvalidParameterError("mgf sweep requires smin < smax <= 0")
    xs = SweepGrid(args.smin, args.smax, args.points).values()
    rows = [[float(s)] for s in xs]
    header = ["s"]
    if args.method in ("series", "both"):
        header += ["mgf_series", "terms_used"]
        for row, res in zip(rows, mgf_series_grid(p, gamma0, xs)):
            row += [res.value, res.terms_used]
    if args.method in ("closed", "both"):
        header += ["mgf_closed"]
        for row, s in zip(rows, xs):
            row.append(mgf_closed(p, gamma0, float(s)))
    _write_csv(header, rows, out)
    return EXIT_OK


def _asep_exact_with_fallback(p, mod, gamma0s):
    """(value, terms, tag) per average SNR; substitutes quadrature at the
    points where the series does not converge or flags unrecoverable
    cancellation."""
    out = []
    for gamma0, res in zip(gamma0s, asep_exact_grid(p, mod, gamma0s)):
        if isinstance(res, (SeriesDivergenceError, CancellationLossError)):
            out.append((asep_quadrature(p, mod, gamma0), 0, "quadrature-fallback"))
        else:
            out.append((res.value, res.terms_used, "exact"))
    return out


def _cmd_asep(args, out) -> int:
    p = _params_from_args(args)
    mod = ModulationSpec(args.mod_order)
    snrs = _parse_snr_range(args.snr_db)
    methods = ["exact", "asymptotic", "quadrature"] if args.method == "all" else [args.method]
    header = ["snr_db"] + methods + (["method_tag"] if "exact" in methods else [])
    gamma0s = [_snr_linear(db) for db in snrs]
    if "exact" in methods:
        exact = _asep_exact_with_fallback(p, mod, gamma0s)
    rows = []
    for i, (db, gamma0) in enumerate(zip(snrs, gamma0s)):
        row = [float(db)]
        for m in methods:
            if m == "exact":
                value, _terms, tag = exact[i]
                row.append(value)
            elif m == "asymptotic":
                row.append(asep_asymptotic(p, mod, gamma0))
            else:
                row.append(asep_quadrature(p, mod, gamma0))
        if "exact" in methods:
            row.append(tag)
        rows.append(row)
    _write_csv(header, rows, out)
    return EXIT_OK


def _cmd_simulate(args, out) -> int:
    p = _params_from_args(args)
    mod = ModulationSpec(args.mod_order)
    snrs = _parse_snr_range(args.snr_db)
    cfg = mcsim.SimConfig(
        n_samples=args.samples, seed=args.seed, workers=args.workers
    )
    gamma0s = [_snr_linear(db) for db in snrs]
    rows = []
    for db, gamma0 in zip(snrs, gamma0s):
        est = mcsim.simulate_psk_ser(p, mod, gamma0, cfg, min_errors=args.min_errors)
        rows.append((float(db), est.ser, est.ci95_halfwidth, est.errors, est.trials))
    _write_csv(["snr_db", "ser", "ci95", "errors", "trials"], rows, out)
    return EXIT_OK


def _cmd_convert(args, out) -> int:
    if (args.gamma is None) == (args.delta is None):
        raise InvalidParameterError("convert requires exactly one of --gamma/--delta")
    rows = []
    if args.gamma is not None:
        gamma = args.gamma
        delta = params.delta_from_gamma(gamma)
        k_of = lambda kr: params.k_from_rice_gamma(kr, gamma)
    else:
        delta = args.delta
        gamma = params.gamma_from_delta(delta)
        k_of = lambda kr: params.k_from_rice_delta(kr, delta)
    header = ["gamma", "delta"]
    row = [gamma, delta]
    if args.k_rice is not None:
        header += ["k_rice", "k"]
        row += [args.k_rice, k_of(args.k_rice)]
    rows.append(row)
    _write_csv(header, rows, out)
    return EXIT_OK


def _cmd_figures(args, out) -> int:
    if not (math.isfinite(args.snr_step) and args.snr_step > 0):
        raise InvalidParameterError(f"--snr-step must be positive, got {args.snr_step}")
    v_ratio = SweepGrid(0.0, 1.0, args.points).values()
    r_norm = SweepGrid(0.0, 3.5, args.points).values()
    sim_cfg = mcsim.SimConfig(n_samples=args.samples, seed=args.seed, workers=args.workers)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    manifest: dict = {
        "seed": args.seed,
        "samples": args.samples,
        "snr_step_db": args.snr_step,
        "figures": {},
    }

    def emit(name, header, rows, meta):
        path = os.path.join(outdir, name)
        with open(path, "w", newline="") as fh:
            _write_csv(header, rows, fh)
        manifest["figures"][name] = meta
        out.write(f"wrote {path}\n")

    # parameter-map curves
    emit(
        "fig1.csv",
        ["v2_over_v1", "delta", "gamma"],
        [(x, params.delta_from_gamma(float(x)), x) for x in v_ratio],
        {"curves": ["delta", "gamma"], "points": args.points},
    )
    emit(
        "fig2.csv",
        ["param_value", "k_ratio_vs_delta", "k_ratio_vs_gamma"],
        [
            (
                x,
                params.k_from_rice_delta(1.0, float(x)),
                params.k_from_rice_gamma(1.0, float(x)),
            )
            for x in v_ratio
        ],
        {"curves": ["k/k_rice vs delta", "k/k_rice vs gamma"], "points": args.points},
    )

    # normalized envelope pdf/cdf curves for the four parameter sets
    sets = [(TwdpParams(k=k, gamma=g), tag) for k, g, tag in FIGURE_SETS]
    for which, fname in (("pdf", "fig3a.csv"), ("cdf", "fig3b.csv")):
        header = ["r_norm"] + [f"{which}_{tag}" for _, tag in sets]
        cols = []
        max_terms = 0
        for p, _tag in sets:
            scale = math.sqrt(p.omega)
            if which == "pdf":
                res = dist.pdf_grid(p, r_norm * scale)
                cols.append([v.value * scale for v in res])
            else:
                res = dist.cdf_grid(p, r_norm * scale)
                cols.append([v.value for v in res])
            max_terms = max(max_terms, max(v.terms_used for v in res))
        rows = list(zip(r_norm, *cols))
        emit(fname, header, rows, {
            "sets": [tag for _, tag in sets],
            "points": args.points,
            "max_terms_used": max_terms,
        })

    # exact / asymptotic / simulated symbol error rate, one file per PSK order
    snrs = np.arange(0.0, 40.0 + 1e-9, args.snr_step)
    gamma0s = [_snr_linear(db) for db in snrs]
    for m_order, fname in ((2, "fig4a.csv"), (4, "fig4b.csv"), (8, "fig4c.csv"), (16, "fig4d.csv")):
        mod = ModulationSpec(m_order)
        header = ["snr_db"]
        for _, tag in sets:
            header += [f"exact_{tag}", f"asym_{tag}", f"sim_{tag}", f"sim_ci95_{tag}"]
        exact = [_asep_exact_with_fallback(p, mod, gamma0s) for p, _ in sets]
        rows = []
        fallbacks = []
        max_terms = 0
        for i, (db, gamma0) in enumerate(zip(snrs, gamma0s)):
            row = [float(db)]
            for (p, tag), col in zip(sets, exact):
                value, terms, tag_method = col[i]
                max_terms = max(max_terms, terms)
                if tag_method != "exact":
                    fallbacks.append({"snr_db": float(db), "set": tag})
                est = mcsim.simulate_psk_ser(p, mod, gamma0, sim_cfg)
                row += [value, asep_asymptotic(p, mod, gamma0), est.ser, est.ci95_halfwidth]
            rows.append(row)
        emit(fname, header, rows, {
            "m_order": m_order,
            "sets": [tag for _, tag in sets],
            "seed": args.seed,
            "samples_per_point": args.samples,
            "max_terms_used": max_terms,
            "quadrature_fallbacks": fallbacks,
        })

    # binary PSK error-rate families against the legacy and revised parameter
    delta_family = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0]
    gamma_family = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    mod2 = ModulationSpec(2)
    for fname, values, flavor in (
        ("fig6a.csv", delta_family, "delta"),
        ("fig6b.csv", gamma_family, "gamma"),
    ):
        header = ["snr_db"] + [f"asep_{flavor}_{v:g}" for v in values]
        cols = []
        for v in values:
            gamma = params.gamma_from_delta(v) if flavor == "delta" else v
            p = TwdpParams(k=6.0, gamma=gamma)
            cols.append([value for value, _terms, _tag in
                         _asep_exact_with_fallback(p, mod2, gamma0s)])
        rows = [[float(db), *vals] for db, *vals in zip(snrs, *cols)]
        emit(fname, header, rows, {
            "k": 6.0,
            "m_order": 2,
            flavor: values,
        })

    manifest_path = os.path.join(outdir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    out.write(f"wrote {manifest_path}\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twdp",
        description="TWDP fading statistics, M-PSK error rates and Monte Carlo checks (CSV output)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for which in ("pdf", "cdf"):
        sp = sub.add_parser(which, help=f"envelope {which} curve")
        _add_param_flags(sp)
        sp.add_argument("--rmax", type=float, default=3.5,
                        help="upper envelope value (normalized units by default)")
        sp.add_argument("--points", type=int, default=200)
        sp.add_argument("--normalized", action=argparse.BooleanOptionalAction, default=True,
                        help="x axis is r/sqrt(Omega) and the density is rescaled accordingly")

    sp = sub.add_parser("mgf", help="SNR MGF curve over s <= 0")
    _add_param_flags(sp)
    sp.add_argument("--gamma0-db", type=float, default=10.0)
    sp.add_argument("--smin", type=float, default=-10.0)
    sp.add_argument("--smax", type=float, default=0.0)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--method", choices=["series", "closed", "both"], default="both")

    sp = sub.add_parser("asep", help="average M-PSK symbol error probability curve")
    _add_param_flags(sp)
    sp.add_argument("--mod-order", type=int, default=2)
    sp.add_argument("--snr-db", type=str, default="0:40:5", help="from:to:step in dB")
    sp.add_argument("--method", choices=["exact", "asymptotic", "quadrature", "all"],
                    default="all")

    sp = sub.add_parser("simulate", help="Monte Carlo M-PSK symbol error rate")
    _add_param_flags(sp)
    sp.add_argument("--mod-order", type=int, default=2)
    sp.add_argument("--snr-db", type=str, default="0:40:5")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--min-errors", type=int, default=None,
                    help="stop early once this many error events are seen")

    sp = sub.add_parser("convert", help="convert between Gamma and Delta (and K forms)")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--k-rice", type=float, default=None,
                    help="also report total K for this dominant-ray K factor")

    sp = sub.add_parser("figures", help="emit the full CSV curve bundle plus manifest")
    sp.add_argument("--outdir", type=str, required=True)
    sp.add_argument("--points", type=int, default=401)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--snr-step", type=float, default=2.0)

    return ap


# a value such as -10:10:5 or -1e6, which argparse would take for an option
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_values(argv):
    """Rewrite `--flag -1e6` as `--flag=-1e6`.

    argparse reads a separate token that starts with `-` as a value only when
    it is a plain negative number, so ranges and exponents need the `=` form.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        is_flag = len(prev) > 2 and prev.startswith("--") and "=" not in prev
        if is_flag and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _run_command(ap, args, out) -> int:
    if args.command in ("pdf", "cdf"):
        return _cmd_pdf_cdf(args, args.command, out)
    if args.command == "mgf":
        return _cmd_mgf(args, out)
    if args.command == "asep":
        return _cmd_asep(args, out)
    if args.command == "simulate":
        return _cmd_simulate(args, out)
    if args.command == "convert":
        return _cmd_convert(args, out)
    if args.command == "figures":
        return _cmd_figures(args, out)
    ap.error(f"unknown command {args.command}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    out = sys.stdout
    try:
        code = _run_command(ap, args, out)
        out.flush()  # a closed pipe surfaces here rather than at exit
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): silence the interpreter's
        # final flush of the dead stdout, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SeriesDivergenceError, CancellationLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERIES
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except OSError as exc:
        print(f"error: {exc.strerror or exc} ({getattr(exc, 'filename', '')})", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
