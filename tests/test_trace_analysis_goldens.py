"""Byte-identity goldens for what the trace analyses *return* (ISSUE 15).

``tests/goldens/trace_export.json`` pins the Chrome documents and the
JSONL; this file pins the answers computed from a trace.
``tests/goldens/trace_analysis.json`` was captured at the commit *before*
the analyses moved onto one shared trace index (one FIFO matching pass,
positional critical-path walk, windowed wait attribution) and the event
record became tuple-backed.  Per case and per engine backend it holds
the sha256 of

* ``waits`` — ``attribute_waits(store).as_dict()``;
* ``imbalance`` — ``load_imbalance(store).as_dict()``;
* ``path`` — the critical path as ``[(rank, kind, start, end, wire)]``;
* ``pairs`` — ``match_messages`` as ``[(src, dst, tag, send.end, recv.start)]``;
* ``flows`` — the ``ph: s|f`` message arrows of the Chrome document
  (``trace_export.json``'s ``chaos_nonflow`` leaves them out);

plus the event and pair counts, so a mismatch says how far off it is.
The cases are the five ``report --trace`` kernels, the ``report
--diagnose jacobi`` chaos drill, and the paper's four programs compiled
from source at the wall-clock benchmark's sizes (N=16).

Regenerate (only when an analysis is *supposed* to answer differently)::

    PYTHONPATH=src python -m tests.test_trace_analysis_goldens
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import MachineModel, Session
from repro.lang.programs import (
    GAUSS_SOURCE,
    JACOBI_SOURCE,
    MATMUL_SOURCE,
    SOR_SOURCE,
)
from repro.machine import chrome_trace_json, critical_path
from repro.machine.export import match_messages
from repro.obs import TraceStore, attribute_waits, load_imbalance
from repro.tools import report

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "trace_analysis.json"
BACKENDS = ("engine", "threaded")
NPROCS = 16
MODEL = MachineModel(tf=1, tc=10)

#: label -> (source, env); the sizes of perf/workloads.py's journeys.
JOURNEYS = {
    "jacobi": (JACOBI_SOURCE, {"m": 256, "maxiter": 10}),
    "sor": (SOR_SOURCE, {"m": 128, "maxiter": 2}),
    "gauss": (GAUSS_SOURCE, {"m": 64}),
    "matmul": (MATMUL_SOURCE, {"n": 48}),
}


def _journey(label: str, backend: str):
    """Source -> cold compile -> traced run, on the benchmark's seed-0 inputs."""
    source, env = JOURNEYS[label]
    if label == "matmul":
        n = env["n"]
        rng = np.random.default_rng([0, 3, n])
        inputs = {"B": rng.random((n, n)), "C": rng.random((n, n))}
    else:
        m = env["m"]
        rng = np.random.default_rng([0, 2, m])
        half = rng.random((m, m))
        A = (half + half.T) / 2 + m * np.eye(m)
        inputs = {"A": A, "B": A @ rng.uniform(-1.0, 1.0, size=m)}
        if label != "gauss":
            inputs |= {"X0": np.zeros(m), "iterations": env["maxiter"]}
        if label == "sor":
            inputs["omega"] = 1.1
    result = Session(machine=MODEL, cache="off").compile(source, nprocs=NPROCS, env=env)
    return result.run(model=MODEL, inputs=inputs, trace=True, backend=backend)


CASES = {
    **{f"trace/{k}": report.TRACED[k].run for k in report.TRACED},
    "diagnose/jacobi": report.DIAGNOSED["jacobi"].run,
    **{f"journey/{k}": (lambda b, k=k: _journey(k, b)) for k in JOURNEYS},
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def record(case: str, backend: str) -> dict:
    res = CASES[case](backend)
    store = TraceStore.from_run(res)
    pairs = match_messages(res.trace)
    events = chrome_trace_json(res.trace, process_name=case)["traceEvents"]
    return {
        "events": len(store),
        "matched": len(pairs),
        "waits": _sha(attribute_waits(store).as_dict()),
        "imbalance": _sha(load_imbalance(store).as_dict()),
        "path": _sha([
            (s.event.rank, s.event.kind, s.event.start, s.event.end, s.wire)
            for s in critical_path(res.trace).steps
        ]),
        "pairs": _sha([
            (snd.rank, rcv.rank, snd.tag, snd.end, rcv.start) for snd, rcv in pairs
        ]),
        "flows": _sha([e for e in events if e["ph"] in ("s", "f")]),
    }


def capture() -> dict:
    return {
        case: {backend: record(case, backend) for backend in BACKENDS}
        for case in sorted(CASES)
    }


GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_analyses_return_the_same_bytes(case, backend):
    assert record(case, backend) == GOLDENS[case][backend]


def test_golden_covers_every_case():
    assert sorted(GOLDENS) == sorted(CASES)
    assert all(sorted(GOLDENS[c]) == sorted(BACKENDS) for c in GOLDENS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
