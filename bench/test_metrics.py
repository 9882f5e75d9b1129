"""BENCHMARK.json lists exactly the metrics the benchmark prints, and every
round runs every request of its workload.

    python3 -m pytest -q bench/test_metrics.py
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_runs_heavy_requests_once_and_light_ones_per_pass(workload):
    requests = workloads.build(workload, seed=0)
    order = workloads.round_order(workload, requests)
    heavy = sum(not r.light for r in requests)
    passes = workloads.LIGHT_PASSES[workload]
    for i, req in enumerate(requests):
        want = passes * heavy if req.light and passes else 1
        assert order.count(i) == want, req.label
