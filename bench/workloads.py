"""Request lists for the benchmark workloads, and the check of every output row.

A request is one `twdp` command line (one curve).  Its inputs come from the
workload seed: the seed moves the far end of each grid by less than one grid
step (rmax for pdf/cdf, smin for mgf, the SNR start for asep/simulate) and
is the Monte Carlo seed of `simulate`.  The requests that hold the known
`_ABS_FLOOR` tail fault keep a fixed grid, so the number of rows that fault
fails does not depend on the seed.

A round runs every request of the workload, and the light ones, which take
well under 0.2 s each, several times: before each of the other requests
(see round_order), so that each has many latency samples spread over the
round.

Every row is checked against `oracle`, which never imports `twdp`.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

FIGURE_SETS = ((0.0, 0.0), (8.0, 0.0), (8.0, 0.5), (14.0, 1.0))
STATS_SETS = FIGURE_SETS + ((20.0, 1.0), (40.0, 0.0))

CURVE_POINTS = 401
RMAX = 3.5
MGF_SMIN, MGF_SMAX, MGF_POINTS, MGF_GAMMA0_DB = -10.0, 0.0, 101, 10.0
ASEP_ORDERS = (2, 4, 8, 16)
ASEP_SPAN_DB, ASEP_STEP_DB = 40.0, 5.0
SIM_ORDERS = (2, 16)
SIM_SPAN_DB, SIM_STEP_DB = 10.0, 5.0
SIM_SAMPLES = 1 << 19

# relative tolerances of the row checks
REL_STATS = 1e-11  # pdf, cdf and both mgf columns against the oracle
REL_ASEP = 1e-8  # exact and quadrature columns against the oracle
REL_CLOSED = 1e-12  # K=0 exact column against the Rayleigh closed form; asymptote
SIM_SIGMAS = 6.0  # simulated SER within this many standard deviations
SIM_MIN_ERRORS = 10

# Requests whose tail rows fail today because values below _ABS_FLOOR = 1e-13
# in twdp/dist.py get only absolute accuracy.  Such a row still meets that
# absolute bound, which is how a failure is told apart from a new fault.
KNOWN_FAULT = {("pdf", 14.0, 1.0), ("pdf", 20.0, 1.0), ("cdf", 40.0, 0.0)}
KNOWN_FAULT_ABS = 1e-12

WORKLOADS = ("asep-curves", "stats-curves", "simulate")

# Light requests: the curves of the three figure sets that stay on the
# long-double path (7-80 ms each in asep-curves, 9-180 ms in stats-curves),
# and the K=40 pdf (about 0.1 s).  The median request of both workloads is
# one of them.  LIGHT_PASSES is how often all light requests run before each
# other request of a round.
LIGHT_SETS = FIGURE_SETS[:3]
LIGHT_EXTRA = {("pdf", 40.0, 0.0)}
LIGHT_PASSES = {"asep-curves": 6, "stats-curves": 2, "simulate": 0}


@dataclass
class Request:
    kind: str
    k: float
    gamma: float
    argv: list
    grid: np.ndarray
    extra: dict = field(default_factory=dict)
    ref: dict | None = None  # oracle values, filled by reference()

    @property
    def known_fault(self) -> bool:
        return (self.kind, self.k, self.gamma) in KNOWN_FAULT

    @property
    def light(self) -> bool:
        return ((self.k, self.gamma) in LIGHT_SETS
                or (self.kind, self.k, self.gamma) in LIGHT_EXTRA)

    @property
    def label(self) -> str:
        m = f" M={self.extra['M']}" if "M" in self.extra else ""
        return f"{self.kind} K={self.k:g} Gamma={self.gamma:g}{m}"


def _param_flags(k, gamma):
    return [f"--k={k!r}", f"--gamma={gamma!r}"]


def _snr_grid(start: float, span: float, step: float) -> np.ndarray:
    # the same grid `twdp --snr-db start:stop:step` builds
    n = int(round(span / step)) + 1
    return start + step * np.arange(n)


def sim_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def build(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    reqs = []
    if workload == "asep-curves":
        for m in ASEP_ORDERS:
            for k, g in FIGURE_SETS:
                start = ASEP_STEP_DB * rng.random()
                argv = ["asep", *_param_flags(k, g), f"--mod-order={m}",
                        f"--snr-db={start!r}:{start + ASEP_SPAN_DB!r}:{ASEP_STEP_DB!r}",
                        "--method=all"]
                reqs.append(Request("asep", k, g, argv,
                                    _snr_grid(start, ASEP_SPAN_DB, ASEP_STEP_DB),
                                    {"M": m}))
    elif workload == "stats-curves":
        step = RMAX / (CURVE_POINTS - 1)
        mgf_step = (MGF_SMAX - MGF_SMIN) / (MGF_POINTS - 1)
        for k, g in STATS_SETS:
            for kind in ("pdf", "cdf"):
                u = rng.random()
                rmax = RMAX if (kind, k, g) in KNOWN_FAULT else RMAX + step * u
                argv = [kind, *_param_flags(k, g), f"--points={CURVE_POINTS}",
                        f"--rmax={rmax!r}"]
                reqs.append(Request(kind, k, g, argv,
                                    np.linspace(0.0, rmax, CURVE_POINTS)))
            smin = MGF_SMIN - mgf_step * rng.random()
            argv = ["mgf", *_param_flags(k, g), f"--gamma0-db={MGF_GAMMA0_DB!r}",
                    f"--smin={smin!r}", f"--smax={MGF_SMAX!r}",
                    f"--points={MGF_POINTS}", "--method=both"]
            reqs.append(Request("mgf", k, g, argv,
                                np.linspace(smin, MGF_SMAX, MGF_POINTS),
                                {"gamma0": 10.0 ** (MGF_GAMMA0_DB / 10.0)}))
    elif workload == "simulate":
        for k, g in FIGURE_SETS:
            for m in SIM_ORDERS:
                start = SIM_STEP_DB * rng.random()
                argv = ["simulate", *_param_flags(k, g), f"--mod-order={m}",
                        f"--snr-db={start!r}:{start + SIM_SPAN_DB!r}:{SIM_STEP_DB!r}",
                        f"--samples={SIM_SAMPLES}", f"--seed={seed}",
                        f"--workers={sim_workers()}"]
                reqs.append(Request("simulate", k, g, argv,
                                    _snr_grid(start, SIM_SPAN_DB, SIM_STEP_DB),
                                    {"M": m}))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return reqs


def round_order(workload: str, requests: list) -> list:
    """Indices into requests, in the order one round runs them.

    Before each request that is not light, every light request runs
    LIGHT_PASSES[workload] times; when that is 0 the round runs each request
    once, in list order.  The order is fixed, so every round has the same
    rows and the same failed share.
    """
    passes = LIGHT_PASSES[workload]
    if passes == 0:
        return list(range(len(requests)))
    light = [i for i, r in enumerate(requests) if r.light]
    order = []
    for i, r in enumerate(requests):
        if not r.light:
            order += light * passes
            order.append(i)
    return order


def reference(req: Request) -> None:
    """Fill req.ref with the oracle's values on the request's grid."""
    # imported only now, so scipy.stats stays out of the measured peak RSS
    import oracle

    k, g, x = req.k, req.gamma, req.grid
    if req.kind == "pdf":
        req.ref = {"y": oracle.pdf(k, g, x)}
    elif req.kind == "cdf":
        req.ref = {"y": oracle.cdf(k, g, x)}
    elif req.kind == "mgf":
        req.ref = {"y": oracle.mgf(k, g, req.extra["gamma0"], x)}
    else:
        m = req.extra["M"]
        g0 = 10.0 ** (x / 10.0)
        ref = {"asep": np.array([oracle.asep(k, g, m, v) for v in g0])}
        if req.kind == "asep":
            ref["asym"] = np.array([oracle.asep_asymptote(k, g, m, v) for v in g0])
            if k == 0.0:
                ref["rayleigh"] = np.array([oracle.asep_rayleigh(m, v) for v in g0])
        req.ref = ref


def _rel_ok(got, want, tol):
    return abs(got - want) <= tol * abs(want)


def _row_errors(req: Request, i: int, row: dict) -> list:
    """Names of the checks row i fails (empty when it passes)."""
    x = req.grid[i]
    xcol = {"pdf": "x", "cdf": "x", "mgf": "s"}.get(req.kind, "snr_db")
    bad = []
    got_x = float(row[xcol])
    if got_x != x and not _rel_ok(got_x, x, 1e-12):
        bad.append("x")
    ref = req.ref
    if req.kind in ("pdf", "cdf"):
        if not _rel_ok(float(row["y"]), ref["y"][i], REL_STATS):
            bad.append("y")
    elif req.kind == "mgf":
        for col in ("mgf_series", "mgf_closed"):
            if not _rel_ok(float(row[col]), ref["y"][i], REL_STATS):
                bad.append(col)
    elif req.kind == "asep":
        for col in ("exact", "quadrature"):
            if not _rel_ok(float(row[col]), ref["asep"][i], REL_ASEP):
                bad.append(col)
        if req.k == 0.0 and not _rel_ok(float(row["exact"]), ref["rayleigh"][i], REL_CLOSED):
            bad.append("exact-rayleigh")
        if not _rel_ok(float(row["asymptotic"]), ref["asym"][i], REL_CLOSED):
            bad.append("asymptotic")
        if row["method_tag"] not in ("exact", "quadrature-fallback"):
            bad.append("method_tag")
    else:
        errors, trials, ser = int(row["errors"]), int(row["trials"]), float(row["ser"])
        p = ref["asep"][i]
        if trials != SIM_SAMPLES:
            bad.append("trials")
        if errors < SIM_MIN_ERRORS:
            bad.append("errors")
        if not _rel_ok(ser, errors / trials, 1e-12):
            bad.append("ser")
        if abs(ser - p) > SIM_SIGMAS * math.sqrt(p * (1.0 - p) / SIM_SAMPLES):
            bad.append("ser-vs-oracle")
    return bad


@dataclass
class CheckResult:
    rows: int
    failed: int
    unexpected: list  # descriptions of failures outside the known fault


def check(req: Request, rc: int, stdout: str) -> CheckResult:
    """Check every output row of one request against req.ref."""
    n = req.grid.size
    if rc != 0:
        return CheckResult(n, n, [f"{req.label}: exit code {rc}"])
    try:
        rows = list(csv.DictReader(io.StringIO(stdout)))
    except csv.Error as exc:
        return CheckResult(n, n, [f"{req.label}: unreadable CSV ({exc})"])
    if len(rows) != n:
        return CheckResult(n, n, [f"{req.label}: {len(rows)} rows, expected {n}"])
    failed = 0
    unexpected = []
    for i, row in enumerate(rows):
        try:
            bad = _row_errors(req, i, row)
        except (KeyError, TypeError, ValueError) as exc:
            bad = [f"unparsable row ({exc!r})"]
        if not bad:
            continue
        failed += 1
        if (req.known_fault and bad == ["y"]
                and abs(float(row["y"]) - req.ref["y"][i]) <= KNOWN_FAULT_ABS):
            continue
        unexpected.append(f"{req.label}: row {i} fails {','.join(bad)}: {dict(row)}")
    return CheckResult(n, failed, unexpected)
