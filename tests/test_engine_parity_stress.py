"""Stress parity suite: the calendar engine's bit-identical contract.

Runs Jacobi, pipelined SOR and Cannon at N=64 and N=256 on the
deterministic engine (plus N=64 on the threaded backend) and compares
makespan, per-rank finish times and a SHA-256 digest of *every trace
event* against goldens captured from the seed (pre-calendar) engine in
``tests/goldens/engine_parity.json``.

A single timestamp moving by one ULP, a tie resolving in a different
rank order, or an event appearing/disappearing fails here with the case
name.  Event engine cases — the six kernels plus a seeded-fault reliable
run, a posted-transport run, a timeout storm (the timed receive: deadline
heap and stall step, threaded too) and the sparse executor's ghost gather
(the posted receive) — also pin ``Metrics.as_dict()`` by digest: a float sum accumulated in another order fails here even when
every timestamp is right, and the untraced run must fold the same sums.
See ``tests/parity_goldens.py`` for the capture procedure and
``docs/ENGINE.md`` for the contract.
"""

from __future__ import annotations

import json

import pytest

from tests.parity_goldens import (
    GOLDEN_PATH,
    RECEIVE_CASES,
    SMALL_CASES,
    SMALL_N,
    golden_keys,
    run_case,
)

with GOLDEN_PATH.open() as fh:
    GOLDENS = json.load(fh)


@pytest.mark.parametrize(
    "name,backend,n",
    golden_keys(),
    ids=[f"{name}-N{n}-{backend}" for name, backend, n in golden_keys()],
)
def test_engine_parity(name, backend, n):
    key = f"{name}-N{n}-{backend}"
    assert key in GOLDENS, f"golden missing for {key}; run tests/parity_goldens.py"
    got = run_case(name, backend, n)
    want = GOLDENS[key]
    # Compare field by field so a failure names what drifted.
    assert got["makespan"] == want["makespan"], key
    assert got["events"] == want["events"], key
    assert got["finish_times_digest"] == want["finish_times_digest"], key
    assert got["trace_digest"] == want["trace_digest"], key
    assert got.get("metrics_digest") == want.get("metrics_digest"), key
    assert got.get("words") == want.get("words"), key
    assert ("words" in want) == (name in RECEIVE_CASES), key
    assert ("metrics_digest" in want) == (backend == "engine"), key


@pytest.mark.parametrize(
    "name", ["jacobi", "cannon", "reliable", "posted", "storm", "sparse-gather"]
)
def test_untraced_run_folds_the_same_metrics(name):
    if name in RECEIVE_CASES:
        n = RECEIVE_CASES[name].n
    else:
        n = SMALL_N if name in SMALL_CASES else 64
    got = run_case(name, "engine", n, trace=False)
    want = GOLDENS[f"{name}-N{n}-engine"]
    assert got == {field: want[field] for field in got}
