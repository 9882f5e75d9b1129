"""Command-line front end emitting CSV curve data.

Subcommands: pdf, cdf, mgf, asep, simulate, convert, figures.  Numeric CSV
cells use %.12e formatting, header rows are always present, and rows are
ordered by ascending x.  Average SNR is accepted in dB on every flag and
converted to the library's linear gamma0 in one place, _snr_linear.

Exit codes: 0 success, 2 usage error, 3 series failure (a point past the
mixture's term budget, or one no series can sum), 4 quadrature failure,
5 I/O failure, 1 stdout closed early (as by `| head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import dist, mcsim, params
from .asep import ModulationSpec, asep_asymptotic, asep_exact_grid, asep_quadrature_grid
from .errors import InvalidParameterError, QuadratureError, SeriesDivergenceError
from .mgf import mgf_closed_grid, mgf_series_grid
from .params import TwdpParams

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_SERIES = 3
EXIT_QUADRATURE = 4
EXIT_IO = 5

# the most points one grid may have: far above any curve's need, and a
# larger count is refused before its array is built
_MAX_POINTS = 10**6

# the four parameter sets used throughout the figure reproductions
FIGURE_SETS = (
    (0.0, 0.0, "k0_g0"),
    (8.0, 0.0, "k8_g0"),
    (8.0, 0.5, "k8_g05"),
    (14.0, 1.0, "k14_g1"),
)


def _sweep(start: float, stop: float, points: int) -> np.ndarray:
    """points evenly spaced values from start to stop, both included."""
    if not 2 <= points <= _MAX_POINTS:
        raise InvalidParameterError(f"points must be in [2, {_MAX_POINTS}], got {points}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InvalidParameterError(f"grid bounds must be finite, got {start} and {stop}")
    if not start < stop:
        raise InvalidParameterError("grid start must be below stop")
    return np.linspace(start, stop, points)


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
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
    return TwdpParams(k=args.k, gamma=gamma, sigma2=args.sigma2)


def _add_param_flags(sp):
    sp.add_argument("--k", type=float, required=True,
                    help="specular-to-diffuse power ratio K")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--gamma", type=float, default=None,
                       help="specular magnitude ratio V2/V1 in [0, 1]")
    group.add_argument("--delta", type=float, default=None,
                       help="legacy parameter Delta in [0, 1] (converted to Gamma)")
    sp.add_argument("--sigma2", type=float, default=None,
                    help="diffuse half power; default normalizes total power to 1")


def _snr_axis(start: float, stop: float, step: float, what: str) -> np.ndarray:
    """The SNR axis start, start + step, ... up to stop in dB, checked before
    it is built; `what` names its flag in the errors."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidParameterError(f"{what}: bounds and step must be finite")
    if step <= 0 or stop < start:
        raise InvalidParameterError(f"{what}: step must be positive and stop not below start")
    # a float step that reaches the stop may count one step short of it
    # (0.3 / 0.1 < 3) or overshoot it (3 * 0.1 > 0.3): allow for both
    n = (stop - start) / step * (1 + 1e-9)
    if not n < _MAX_POINTS:
        raise InvalidParameterError(
            f"{what}: must give a finite number of points, at most {_MAX_POINTS}")
    return np.minimum(start + step * np.arange(math.floor(n) + 1), stop)


def _parse_snr_range(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise InvalidParameterError(
            f"--snr-db expects from:to:step, got {spec!r}"
        ) from exc
    return _snr_axis(start, stop, step, f"--snr-db {spec!r}")


def _snr_linear(db) -> float:
    """The linear average SNR gamma0 = 10^(dB/10) of an SNR in dB; one past
    the double range is a usage error."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise InvalidParameterError(
            f"an SNR of {float(db):g} dB overflows as a linear value") from None


# ----------------------------------------------------------------------------
# one column builder per quantity, shared by its subcommand and `figures`


def _curve(p: TwdpParams, which: str, xs, normalized: bool) -> tuple:
    """The columns (value, terms_used) of the envelope pdf or cdf along xs;
    when normalized, x is r/sqrt(Omega) and the pdf is rescaled to that axis."""
    scale = math.sqrt(p.omega) if normalized else 1.0
    if not math.isfinite(float(xs[-1]) * scale):  # a float product overflows silently
        raise InvalidParameterError(
            f"--rmax {float(xs[-1]):g} times sqrt(Omega) = {scale:g} leaves the double range")
    grid = (dist.pdf_grid if which == "pdf" else dist.cdf_grid)(p, xs * scale)
    return grid.value * (scale if which == "pdf" else 1.0), grid.terms_used


def _asep_exact_with_fallback(p, mod, gamma0s) -> tuple:
    """The columns (value, terms, fallback) along the average SNRs gamma0s:
    quadrature, 0 terms and True at the points where the series cannot be
    summed or its mixture would pass its term budget."""
    grid = asep_exact_grid(p, mod, gamma0s)
    lost = list(grid.lost)
    value, terms = grid.value.copy(), grid.terms_used.copy()
    value[lost], terms[lost] = asep_quadrature_grid(p, mod, np.asarray(gamma0s)[lost]), 0
    return value, terms, np.isin(np.arange(len(value)), lost)


def _simulate(p, mod, snrs, cfg, min_errors=None) -> list:
    """The Monte Carlo SerEstimate at each average SNR of snrs (dB)."""
    return mcsim.simulate_psk_ser_grid(p, mod, [_snr_linear(db) for db in snrs], cfg, min_errors)


# ----------------------------------------------------------------------------
# subcommands


def _cmd_curve(args, out) -> int:
    p = _params_from_args(args)
    xs = _sweep(0.0, args.rmax, args.points)
    value, terms = _curve(p, args.command, xs, args.normalized)
    _write_csv(["x", "y", "terms_used"], zip(xs, value, terms), out)
    return EXIT_OK


def _cmd_mgf(args, out) -> int:
    p = _params_from_args(args)
    gamma0 = _snr_linear(args.gamma0_db)
    if args.smin >= args.smax or args.smax > 0:
        raise InvalidParameterError("mgf sweep requires smin < smax <= 0")
    xs = _sweep(args.smin, args.smax, args.points)
    header, cols = ["s"], [xs]
    if args.method in ("series", "both"):
        grid = mgf_series_grid(p, gamma0, xs)
        header += ["mgf_series", "terms_used"]
        cols += [grid.value, grid.terms_used]
    if args.method in ("closed", "both"):
        header += ["mgf_closed"]
        cols.append(mgf_closed_grid(p, gamma0, xs))
    _write_csv(header, zip(*cols), out)
    return EXIT_OK


def _cmd_asep(args, out) -> int:
    p = _params_from_args(args)
    mod = ModulationSpec(args.mod_order)
    snrs = _parse_snr_range(args.snr_db)
    methods = ["exact", "asymptotic", "quadrature"] if args.method == "all" else [args.method]
    gamma0s = [_snr_linear(db) for db in snrs]
    header, cols = ["snr_db", *methods], [snrs]
    for m in methods:
        if m == "exact":
            exact, _, fallback = _asep_exact_with_fallback(p, mod, gamma0s)
            cols.append(exact)
        else:
            cols.append(asep_quadrature_grid(p, mod, gamma0s) if m == "quadrature"
                        else [asep_asymptotic(p, mod, gamma0) for gamma0 in gamma0s])
    if "exact" in methods:
        header.append("method_tag")
        cols.append(np.where(fallback, "quadrature-fallback", "exact"))
    _write_csv(header, zip(*cols), out)
    return EXIT_OK


def _cmd_simulate(args, out) -> int:
    p = _params_from_args(args)
    mod = ModulationSpec(args.mod_order)
    snrs = _parse_snr_range(args.snr_db)
    cfg = mcsim.SimConfig(n_samples=args.samples, seed=args.seed, workers=args.workers)
    rows = [(db, est.ser, est.ci95_halfwidth, est.errors, est.trials)
            for db, est in zip(snrs, _simulate(p, mod, snrs, cfg, args.min_errors))]
    _write_csv(["snr_db", "ser", "ci95", "errors", "trials"], rows, out)
    return EXIT_OK


def _cmd_convert(args, out) -> int:
    if (args.gamma is None) == (args.delta is None):
        raise InvalidParameterError("convert requires exactly one of --gamma/--delta")
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
    _write_csv(header, [row], out)
    return EXIT_OK


def _cmd_figures(args, out) -> int:
    snrs = _snr_axis(0.0, 40.0, args.snr_step, f"--snr-step {args.snr_step:g} (0 to 40 dB)")
    v_ratio = _sweep(0.0, 1.0, args.points)
    r_norm = _sweep(0.0, 3.5, args.points)
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
    emit("fig1.csv", ["v2_over_v1", "delta", "gamma"],
         [(x, params.delta_from_gamma(float(x)), x) for x in v_ratio],
         {"curves": ["delta", "gamma"], "points": args.points})
    emit("fig2.csv", ["param_value", "k_ratio_vs_delta", "k_ratio_vs_gamma"],
         [(x, params.k_from_rice_delta(1.0, float(x)), params.k_from_rice_gamma(1.0, float(x)))
          for x in v_ratio],
         {"curves": ["k/k_rice vs delta", "k/k_rice vs gamma"], "points": args.points})

    # normalized envelope pdf/cdf curves for the four parameter sets
    sets = [(TwdpParams(k=k, gamma=g), tag) for k, g, tag in FIGURE_SETS]
    tags = [tag for _, tag in sets]
    for which, fname in (("pdf", "fig3a.csv"), ("cdf", "fig3b.csv")):
        curves = [_curve(p, which, r_norm, True) for p, _ in sets]
        emit(fname, ["r_norm"] + [f"{which}_{tag}" for tag in tags],
             zip(r_norm, *(value for value, _ in curves)),
             {"sets": tags, "points": args.points,
              "max_terms_used": max(int(terms.max()) for _, terms in curves)})

    # exact / asymptotic / simulated symbol error rate, one file per PSK order
    gamma0s = [_snr_linear(db) for db in snrs]
    for m_order, fname in ((2, "fig4a.csv"), (4, "fig4b.csv"), (8, "fig4c.csv"), (16, "fig4d.csv")):
        mod = ModulationSpec(m_order)
        header = ["snr_db"] + [f"{col}_{tag}" for tag in tags
                               for col in ("exact", "asym", "sim", "sim_ci95")]
        exact = [_asep_exact_with_fallback(p, mod, gamma0s) for p, _ in sets]
        cols = [snrs]
        for (p, _), (value, _, _) in zip(sets, exact):
            est = _simulate(p, mod, snrs, sim_cfg)
            cols += [value, [asep_asymptotic(p, mod, gamma0) for gamma0 in gamma0s],
                     [e.ser for e in est], [e.ci95_halfwidth for e in est]]
        fell = np.column_stack([fallback for _, _, fallback in exact])
        emit(fname, header, zip(*cols), {
            "m_order": m_order,
            "sets": tags,
            "seed": args.seed,
            "samples_per_point": args.samples,
            "max_terms_used": max(int(terms.max()) for _, terms, _ in exact),
            "quadrature_fallbacks": [{"snr_db": float(snrs[i]), "set": tags[j]}
                                     for i, j in np.argwhere(fell)],
        })

    # binary PSK error-rate families against the legacy and revised parameter
    delta_family = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0]
    gamma_family = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    mod2 = ModulationSpec(2)
    for fname, values, flavor in (
        ("fig6a.csv", delta_family, "delta"),
        ("fig6b.csv", gamma_family, "gamma"),
    ):
        cols = [snrs]
        for v in values:
            gamma = params.gamma_from_delta(v) if flavor == "delta" else v
            cols.append(_asep_exact_with_fallback(TwdpParams(k=6.0, gamma=gamma), mod2, gamma0s)[0])
        emit(fname, ["snr_db"] + [f"asep_{flavor}_{v:g}" for v in values], zip(*cols),
             {"k": 6.0, "m_order": 2, flavor: values})

    manifest_path = os.path.join(outdir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    out.write(f"wrote {manifest_path}\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser / entry point


@functools.cache  # built once per process: it costs twenty times its parse
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twdp",
        description="TWDP fading statistics, M-PSK error rates and Monte Carlo checks (CSV output)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for which in ("pdf", "cdf"):
        sp = sub.add_parser(which, help=f"envelope {which} curve")
        sp.set_defaults(run=_cmd_curve)
        _add_param_flags(sp)
        sp.add_argument("--rmax", type=float, default=3.5,
                        help="upper envelope value (normalized units by default)")
        sp.add_argument("--points", type=int, default=200)
        sp.add_argument("--normalized", action=argparse.BooleanOptionalAction, default=True,
                        help="x axis is r/sqrt(Omega) and the density is rescaled accordingly")

    sp = sub.add_parser("mgf", help="SNR MGF curve over s <= 0")
    sp.set_defaults(run=_cmd_mgf)
    _add_param_flags(sp)
    sp.add_argument("--gamma0-db", type=float, default=10.0)
    sp.add_argument("--smin", type=float, default=-10.0)
    sp.add_argument("--smax", type=float, default=0.0)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--method", choices=["series", "closed", "both"], default="both")

    sp = sub.add_parser("asep", help="average M-PSK symbol error probability curve")
    sp.set_defaults(run=_cmd_asep)
    _add_param_flags(sp)
    sp.add_argument("--mod-order", type=int, default=2)
    sp.add_argument("--snr-db", type=str, default="0:40:5", help="from:to:step in dB")
    sp.add_argument("--method", choices=["exact", "asymptotic", "quadrature", "all"],
                    default="all")

    sp = sub.add_parser("simulate", help="Monte Carlo M-PSK symbol error rate")
    sp.set_defaults(run=_cmd_simulate)
    _add_param_flags(sp)
    sp.add_argument("--mod-order", type=int, default=2)
    sp.add_argument("--snr-db", type=str, default="0:40:5")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--min-errors", type=int, default=None,
                    help="stop early once this many error events are seen")

    sp = sub.add_parser("convert", help="convert between Gamma and Delta (and K forms)")
    sp.set_defaults(run=_cmd_convert)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--k-rice", type=float, default=None,
                    help="also report total K for this dominant-ray K factor")

    sp = sub.add_parser("figures", help="emit the full CSV curve bundle plus manifest")
    sp.set_defaults(run=_cmd_figures)
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    out = sys.stdout
    try:
        code = args.run(args, out)
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
    except SeriesDivergenceError as exc:
        hint = "; --method closed gives the closed form there" if args.command == "mgf" else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_SERIES
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except OSError as exc:
        print(f"error: {exc.strerror or exc} ({getattr(exc, 'filename', '')})", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
