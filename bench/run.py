"""Benchmark of the `twdp` curve workloads, end to end and per layer.

    python3 bench/run.py --workload asep-curves --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from src/.
Each request is one `twdp` command line passed to `twdp.cli.main` in this
process, with stdout captured.  The workload runs in whole rounds until
--seconds have passed (at least one round); a round runs every request, and
the light ones several times (workloads.round_order).  Then every output row
of every round is checked against the independent oracle in oracle.py.  The
time metrics come from each request's latencies over all its runs: wall_s
sums the requests' mean latencies, request_ms_p50 is the median over the
requests of their median latencies.  The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": rows, "failed": rows, "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics from the traced ones (see
tracing.py).  Timers are per process only (time.perf_counter).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
DEFAULT_SEED = 0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
)


def measure_setup() -> float:
    """Median time for a fresh interpreter to `import twdp` from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import twdp"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_twdp() -> dict:
    sys.path.insert(0, str(SRC))
    import twdp.asep
    import twdp.cli
    import twdp.dist
    import twdp.mcsim
    import twdp.mgf

    where = Path(twdp.__file__).resolve().parent
    if where != SRC / "twdp":
        raise ImportError(f"twdp was imported from {where}, not from {SRC}")
    return {name: getattr(twdp, name) for name in ("cli", "dist", "mgf", "asep", "mcsim")}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run_request(main, argv, tracer=None):
    """(seconds, exit code, stdout) of one `twdp` command line."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer is not None else None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    dt = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    return dt, rc, out.getvalue()


def run_round(main, requests, order, outputs, tracer=None):
    """(round seconds, [(request index, seconds, exit code, stdout)] in order).

    An output equal to one already in `outputs` is replaced by that one, so
    that repeated runs of a request keep one copy and the peak RSS does not
    grow with the number of rounds.
    """
    t0 = time.perf_counter()
    results = []
    for i in order:
        dt, rc, stdout = run_request(main, requests[i].argv, tracer)
        results.append((i, dt, rc, outputs.setdefault(stdout, stdout)))
    return time.perf_counter() - t0, results


def check_rounds(requests, rounds):
    """Check every row of every round; identical outputs are checked once."""
    for req in requests:
        workloads.reference(req)
    attempted = failed = 0
    unexpected = []
    per_request = []
    memo = {}
    for _wall, results in rounds:
        for i, _dt, rc, stdout in results:
            key = (i, rc, stdout)
            if key not in memo:
                memo[key] = workloads.check(requests[i], rc, stdout)
                per_request.append((requests[i].label, memo[key]))
            res = memo[key]
            attempted += res.rows
            failed += res.failed
            unexpected.extend(res.unexpected)
    return attempted, failed, unexpected, per_request


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:  # it is also the Monte Carlo key of `simulate`
        ap.error("--seed must lie in [0, 2**64)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twdp" / "__init__.py").is_file():
        print(f"error: no twdp package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    setup_s = measure_setup() if not args.trace else None
    mods = import_twdp()
    main_fn = mods["cli"].main
    requests = workloads.build(args.workload, args.seed)
    order = workloads.round_order(args.workload, requests)

    plain, traced, tracers, outputs = [], [], [], {}
    t_start = time.perf_counter()
    while True:
        plain.append(run_round(main_fn, requests, order, outputs))
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer, mods)
            try:
                traced.append(run_round(main_fn, requests, order, outputs, tracer))
            finally:
                tracing.uninstall(patches)
            tracers.append(tracer)
        if time.perf_counter() - t_start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, unexpected, per_request = check_rounds(requests, plain + traced)
    for label, res in per_request:
        print(f"check: {label}: {res.rows} rows, {res.failed} failed")
    for line in unexpected[:20]:
        print("unexpected: " + line)

    walls = [w for w, _ in plain]
    samples = [[] for _ in requests]
    for _, results in plain:
        for i, dt, _rc, _out in results:
            samples[i].append(dt)
    if args.trace:
        units = dict(tracing.PER_LAYER)
        layer_rounds = [tracing.summarize(t.spans) for t in tracers]
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(walls))
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": setup_s,
            "wall_s": sum(statistics.fmean(s) for s in samples),
            "request_ms_p50": 1e3 * statistics.median(statistics.median(s) for s in samples),
            "peak_rss_mib": peak_rss_mib,
        }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, env=env, rounds=len(plain), traced_rounds=len(traced),
                  round_walls=walls, requests=[r.argv for r in requests], order=order,
                  latencies=samples)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracers:
        # spans of the last traced round: [name, start, end, parent index]
        spans = [[sp.name, sp.start, sp.end, sp.parent] for sp in tracers[-1].spans]
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(order)} requests each; median round {statistics.median(walls):.3f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
