"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not collected by tier-1 (``testpaths = ["tests"]``).  Checks the schema
of ``BENCHMARK.json`` against ``registry.py`` and the contract's limits,
then makes one short untraced and one short traced run and checks that
what is printed is exactly what is declared.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

import registry
import spans

HERE = pathlib.Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_registry():
    assert DECLARED == registry.benchmark_json()


def test_schema_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = []
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25
        names.append(m["name"])
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_layer_moves_something_that_exists():
    for layer in registry.PER_LAYER:
        assert set(layer.moves) <= set(registry.WORKLOADS), layer


def test_self_time_sums_to_the_request():
    rec = spans.Recorder()
    with rec.span("bench.request"):
        with rec.span("a"):
            with rec.span("b", calls=3):
                pass
        with rec.span("a"):
            pass
    with rec.span("bench.request"):
        pass
    assert [sp.request for sp in rec.spans] == [1, 1, 1, 1, 2]
    assert spans.calls(rec.spans) == {"bench.request": 2, "a": 2, "b": 3}
    assert sum(spans.self_times(rec.spans).values()) == pytest.approx(
        spans.request_seconds(rec.spans))
    assert spans.calls(rec.spans[1:3]) == {"a": 1, "b": 3}


def _run(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_untraced_run_prints_the_end_to_end_metrics():
    metrics = _run("--workload", "compile-warm", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_prints_the_ledger_and_a_loadable_trace():
    metrics = _run("--workload", "sparse-cg", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert metrics["bench.span_coverage"]["value"] == pytest.approx(1.0, abs=0.05)
    assert metrics["pipeline.inspector.calls"]["value"] == 1
    assert metrics["alignment.segment.calls"]["value"] == 0  # the compiler is idle here
    doc = json.loads((HERE / "out" / "trace_sparse-cg_seed0.json").read_text())
    assert all({"name", "ph", "pid", "tid"} <= set(e) for e in doc["traceEvents"])
    assert sum(e["ph"] == "X" for e in doc["traceEvents"]) > 0
