"""Spans around the calls one `twdp` module makes into another.

The traced run replaces a name on the calling module's namespace with a
wrapper that records a span (name, start, end, parent) and restores the
original when the round ends; nothing under src/ is edited.  Spans stay in
memory until the round is summarised.  Wrapped names are called from the
main thread only (the Monte Carlo pool runs inside simulate_psk_ser), so one
parent stack serves the whole process.

Per-layer metrics are derived from the spans: counts, inclusive time of the
named calls, and each layer's self time (a span's duration minus the part
its child spans cover).
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "dist", "mgf", "asep", "specfun", "mcsim")

# (metric name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("specfun.evals", "count"),
    ("specfun.ld_pass_s", "s"),
    ("specfun.mp_passes", "count"),
    ("specfun.mp_pass_s", "s"),
    ("specfun.mp_max_dps", "digits"),
    ("specfun.ld_accept_ratio", "ratio"),
    ("specfun.series_terms", "count"),
    ("specfun.ive_ladder_calls", "count"),
    ("specfun.ive_ladder_s", "s"),
    ("specfun.tanh_sinh_s", "s"),
    ("dist.pdf_s", "s"),
    ("dist.cdf_grid_s", "s"),
    ("dist.cdf_grid_fallbacks", "count"),
    ("mgf.closed_calls", "count"),
    ("mgf.closed_s", "s"),
    ("mgf.series_s", "s"),
    ("asep.exact_s", "s"),
    ("asep.quadrature_s", "s"),
    ("asep.asymptotic_s", "s"),
    ("asep.fallbacks", "count"),
    ("mcsim.trials", "count"),
    ("mcsim.simulate_s", "s"),
    ("mcsim.trials_per_s", "1/s"),
    ("cli.requests", "count"),
    ("cli.csv_write_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> Span:
        sp = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        """fn, recording a span per call; note(span, result) annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(sp)
            if note is not None:
                note(sp, out)
            return out

        return traced

    def wrap_rescue(self, run_with_rescue):
        """run_with_rescue with a span per call and one per summation pass.

        The pass function's arithmetic argument names the tier of the pass:
        `longdouble` or `mpNN` (mpmath at NN digits).
        """
        def traced_rescue(pass_fn, *args, **kwargs):
            def traced_pass(be):
                sp = self.open("specfun.pass")
                sp.attrs["tier"] = be.name
                try:
                    out = pass_fn(be)
                finally:
                    self.close(sp)
                sp.attrs["terms"] = int(out[1])
                return out

            return run_with_rescue(traced_pass, *args, **kwargs)

        return self.wrap(traced_rescue, "specfun.run_with_rescue")


def install(tracer: Tracer, twdp_modules: dict) -> list:
    """Wrap the cross-module names; returns (module, name, original) to restore.

    A name the package no longer defines is skipped, and its metrics read 0,
    so the same benchmark still runs on a refactored package.
    """
    cli, dist, mgf, asep, mcsim = (twdp_modules[n] for n in ("cli", "dist", "mgf", "asep", "mcsim"))
    patches = []

    def patch(mod, name, make):
        if hasattr(mod, name):
            orig = getattr(mod, name)
            patches.append((mod, name, orig))
            setattr(mod, name, make(orig))

    for mod in (dist, mgf, asep):
        patch(mod, "run_with_rescue", tracer.wrap_rescue)
        patch(mod, "_ive_ladder", lambda f: tracer.wrap(f, "specfun._ive_ladder"))
    patch(asep, "tanh_sinh_rule", lambda f: tracer.wrap(f, "specfun.tanh_sinh_rule"))
    for name in ("pdf", "cdf_grid", "_cdf_at_x"):
        patch(dist, name, lambda f, n=name: tracer.wrap(f, f"dist.{n}"))
    for mod in (cli, asep):
        for name in sorted(vars(mod)):
            if name.startswith(("asep_", "mgf_")) and callable(getattr(mod, name)):
                layer = name.split("_", 1)[0]
                patch(mod, name, lambda f, n=f"{layer}.{name}": tracer.wrap(f, n))

    def note_trials(sp, est):
        sp.attrs["trials"] = int(est.trials)

    patch(mcsim, "simulate_psk_ser",
          lambda f: tracer.wrap(f, "mcsim.simulate_psk_ser", note_trials))
    patch(cli, "_write_csv", lambda f: tracer.wrap(f, "cli._write_csv"))
    return patches


def uninstall(patches: list) -> None:
    for mod, name, orig in reversed(patches):
        setattr(mod, name, orig)


def summarize(spans: list) -> dict:
    """Per-layer metrics of one traced round (trace.overhead_s excepted)."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.dur
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict = {}
    for i, sp in enumerate(spans):
        self_s[sp.name.split(".", 1)[0]] += sp.dur - child[i]
        by_name.setdefault(sp.name, []).append(i)

    def total(name):
        return sum(spans[i].dur for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    passes = [spans[i] for i in by_name.get("specfun.pass", ())]
    ld = [sp for sp in passes if sp.attrs.get("tier") == "longdouble"]
    mp = [sp for sp in passes if sp.attrs.get("tier", "").startswith("mp")]
    evals = by_name.get("specfun.run_with_rescue", ())
    n_passes = [0] * len(spans)
    for i in by_name.get("specfun.pass", ()):
        n_passes[spans[i].parent] += 1
    accepted = sum(1 for i in evals if n_passes[i] == 1 and "error" not in spans[i].attrs)
    trials = sum(spans[i].attrs.get("trials", 0) for i in by_name.get("mcsim.simulate_psk_ser", ()))
    sim_s = total("mcsim.simulate_psk_ser")
    fallbacks = sum(
        1 for i in by_name.get("dist._cdf_at_x", ())
        if spans[i].parent is not None and spans[spans[i].parent].name == "dist.cdf_grid"
    )
    asep_fallbacks = sum(
        1 for i in by_name.get("asep.asep_exact", ())
        if spans[i].attrs.get("error") == "CancellationLossError"
    )
    out = {
        "specfun.evals": len(evals),
        "specfun.ld_pass_s": sum(sp.dur for sp in ld),
        "specfun.mp_passes": len(mp),
        "specfun.mp_pass_s": sum(sp.dur for sp in mp),
        "specfun.mp_max_dps": max((int(sp.attrs["tier"][2:]) for sp in mp), default=0),
        "specfun.ld_accept_ratio": accepted / len(evals) if evals else 0.0,
        "specfun.series_terms": sum(sp.attrs.get("terms", 0) for sp in passes),
        "specfun.ive_ladder_calls": count("specfun._ive_ladder"),
        "specfun.ive_ladder_s": total("specfun._ive_ladder"),
        "specfun.tanh_sinh_s": total("specfun.tanh_sinh_rule"),
        "dist.pdf_s": total("dist.pdf"),
        "dist.cdf_grid_s": total("dist.cdf_grid"),
        "dist.cdf_grid_fallbacks": fallbacks,
        "mgf.closed_calls": count("mgf.mgf_closed"),
        "mgf.closed_s": total("mgf.mgf_closed"),
        "mgf.series_s": total("mgf.mgf_series"),
        "asep.exact_s": total("asep.asep_exact"),
        "asep.quadrature_s": total("asep.asep_quadrature"),
        "asep.asymptotic_s": total("asep.asep_asymptotic"),
        "asep.fallbacks": asep_fallbacks,
        "mcsim.trials": trials,
        "mcsim.simulate_s": sim_s,
        "mcsim.trials_per_s": trials / sim_s if sim_s > 0 else 0.0,
        "cli.requests": count("cli.main"),
        "cli.csv_write_s": total("cli._write_csv"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
