"""Small-size run of every benchmark workload under the tracer.

Each workload runs at a small degree (m = 3, the butterfly at m = 5, and
m = 4 for the APN workload, since the Zhou-Pott APN test needs even m).
Every output check must pass, and every layer metric must read non-zero on
the workloads that should stress its layer and exactly zero on those that
should bypass it (``layers.PREDICTIONS``).
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import warmup  # noqa: E402
import workloads  # noqa: E402


def _smoke(name):
    workload = workloads.WORKLOADS[name]
    count = 2 * len(workload.families)  # apn-m6: one APN, one not, each
    instances = workloads.generate(workload, 7, count, m=workload.smoke_m)
    _, cli, criterion = warmup.SETUP[name]
    warmup.warm_caches({p.params.m for p in instances}, cli, criterion)
    tracer = layers.Tracer()
    result = run.closed_loop(workload, instances, 60.0, tracer)
    reasons = run.check_all(workload, instances, result["outputs"])
    return tracer, result, reasons


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_checks_pass_and_layers_match_predictions(name):
    tracer, result, reasons = _smoke(name)
    assert len(result["outputs"]) == len(reasons) > 0
    assert reasons == [None] * len(reasons)
    metrics = tracer.layer_metrics(len(reasons), 0.0)
    assert set(metrics) == set(layers.PER_LAYER)
    for metric, (moves, zero) in layers.PREDICTIONS.items():
        if name in moves:
            assert metrics[metric] > 0, metric
        if name in zero:
            assert metrics[metric] == 0, metric


def test_tracer_restores_every_wrapped_function():
    import importlib

    from apnspectra.gf2m import Field

    before = {(mod, attr): getattr(importlib.import_module(mod), attr)
              for mod, attr, _ in layers.WRAP_POINTS}
    cached = Field._cached
    with layers.Tracer().installed():
        assert Field._cached is not cached
    assert Field._cached is cached
    for (mod, attr), original in before.items():
        assert getattr(importlib.import_module(mod), attr) is original


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_tail_keeps_ten_samples_above():
    samples = [float(i) for i in range(1, 101)]
    value, pct, n = run.tail(samples)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
