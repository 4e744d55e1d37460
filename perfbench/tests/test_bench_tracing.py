"""Tracing changes no result, counts repeat, and the output keeps its contract."""

import json
import shutil
import subprocess
import sys
import time

from pathlib import Path

import pytest

import run
from tracing import LAYERS, Tracer, lml_modules, metric_specs
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
COUNT_SUFFIXES = (".calls", ".vertices", ".cosets", ".classes", ".results", ".distinct_ratio")


def _small_ops(name):
    """A few cheap seeded operations per workload."""
    workload = WORKLOADS[name]()
    workload.setup(run.lml_layers(), 3)
    block = workload.pool()[0]
    if name == "verify-lattice":
        ops = sorted(block, key=lambda op: op.spec[1] * op.spec[2] * op.spec[3] ** 2)[:4]
    elif name == "witness-bs":
        ops = [op for op in block if op.spec == (9, 10)]
    else:
        ops = block[:3]
    return workload, ops


def _fresh(workload, ops):
    return [run._fresh(workload, op) for op in ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_artifact_bytes(name):
    workload, ops = _small_ops(name)
    plain = [workload.artifact(workload.call(op)) for op in ops]
    copies = _fresh(workload, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(copies):
            tracer.begin_op(i)
            traced.append(workload.artifact(workload.call(op)))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert len(tracer.starts) > 0
    assert set(tracer.op_ids) == set(range(len(ops)))


def test_uninstall_restores_every_reference():
    run.lml_layers()
    before = {
        name: dict(vars(mod)) for name, mod in lml_modules().items()
    }
    words = sys.modules["lml.words"]
    multiply = words.GroupEngine.__dict__["multiply"]
    tracer = Tracer()
    tracer.install()
    wrapped = sys.modules["lml.localmodel"].verify_model
    assert wrapped is not before["lml.localmodel"]["verify_model"]
    # The package namespace's `reconstruct` is the function, and is wrapped.
    assert sys.modules["lml"].reconstruct is sys.modules["lml.reconstruct"].reconstruct
    assert words.GroupEngine.__dict__["multiply"] is not multiply
    tracer.uninstall()
    after = {name: dict(vars(mod)) for name, mod in lml_modules().items()}
    assert after == before
    assert words.GroupEngine.__dict__["multiply"] is multiply


def test_every_layer_function_is_wrapped_where_it_is_called():
    run.lml_layers()
    tracer = Tracer()
    tracer.install()
    try:
        for module, function, _ in LAYERS:
            if function == "multiply":
                continue
            for name, mod in lml_modules().items():
                value = vars(mod).get(function)
                if callable(value) and getattr(value, "__module__", None) == f"lml.{module}":
                    assert hasattr(value, "__wrapped__"), f"{name}.{function}"
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(name):
    workload, ops = _small_ops(name)
    runs = []
    for _ in range(2):
        _, runner, tracer = run.trace_ops(workload, _fresh(workload, ops), time.perf_counter())
        assert runner.failed == 0
        metrics = tracer.per_layer_metrics(runner.attempted, 0.0)
        runs.append({k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
    assert runs[0] == runs[1]
    assert any(v for v in runs[0].values())


def _bench(cwd, workload, trace, seconds="1", seed="5"):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_output_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [(m["name"], m["better"]) for m in spec["per_layer"]] == [
        (name, better) for name, _, better in metric_specs()
    ]
    plain = _last_json(_bench(ROOT, "round-trip", "0"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    traced = [_last_json(_bench(ROOT, "round-trip", "1")) for _ in range(2)]
    assert {k: v["unit"] for k, v in traced[0]["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    counts = [
        {k: v["value"] for k, v in t["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        for t in traced
    ]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "round-trip", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
