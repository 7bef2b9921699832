"""Byte-identity goldens for the trace exporters (ISSUE 12).

``tests/goldens/trace_export.json`` holds sha256 digests captured at the
commit *before* the three event classes (simulated, wall-clock span,
stored) collapsed into ``TraceEvent``, through the exporters that commit
had (a separate correlated-document function, a separate compiler-lane
emitter, a copying ``TraceStore``).  The one-record exporters must
reproduce every byte:

* ``chrome`` / ``jsonl`` — the five fault-free ``report --trace``
  kernels under one fixed ``TraceContext(run_id="run-golden")`` (the
  minted ``run-NNNN`` counter is per process, so it is not pinned);
* ``compiler_lane`` — a hand-built span list (three nesting levels, two
  instants sharing a timestamp) on the compiler lane, which pins that
  the depth *derived* from containment equals the depth the old
  recorder stored;
* ``chaos_nonflow`` / ``chaos_jsonl`` — the ``report --diagnose jacobi``
  chaos drill: everything but the ``ph: s|f`` message arrows, which the
  delivered-only pairing of ``match_messages`` deliberately moved.

Worker-grafted spans are *not* in the golden: their rendered depth is
now their nesting under the hub's dispatching span (it used to be the
worker-relative depth, contradicting the containment Perfetto draws).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.machine.export import COMPILER_TID, chrome_trace_json
from repro.machine.trace import TraceEvent
from repro.obs.context import TraceContext
from repro.obs import TraceStore, tracing_context
from repro.tools.report import TRACED, _chaos_jacobi

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "trace_export.json").read_text()
)
CTX = TraceContext(run_id="run-golden")


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _jsonl_sha(res, tmp_path) -> str:
    return _sha(TraceStore.from_run(res).write_jsonl(tmp_path / "e.jsonl").read_bytes())


@pytest.mark.parametrize("kernel", sorted(GOLDENS["chrome"]))
def test_fault_free_kernel_exports_are_byte_identical(kernel, tmp_path):
    with tracing_context(CTX):
        res = TRACED[kernel]()
    doc = chrome_trace_json(res.trace, context=CTX, process_name=kernel)
    assert _sha(json.dumps(doc, sort_keys=True)) == GOLDENS["chrome"][kernel]
    assert _jsonl_sha(res, tmp_path) == GOLDENS["jsonl"][kernel]


def _span(kind: str, name: str, start: float, end: float) -> TraceEvent:
    return TraceEvent(-1, kind, start, end, detail=name, lane="compiler")


#: Recording (close) order; the old recorder stored depths 2,2,2,2,1,0,0.
HAND_BUILT = [
    _span("span", "codegen/emit", 0.002, 0.004),
    _span("instant", "service/worker-crash#0", 0.005, 0.005),
    _span("instant", "service/worker-respawn#0", 0.005, 0.005),
    _span("span", "dp/solve", 0.006, 0.008),
    _span("span", "service/request", 0.001, 0.009),
    _span("span", "service/batch", 0.0, 0.010),
    _span("instant", "service/fallback", 0.011, 0.011),
]


def test_compiler_lane_is_byte_identical():
    events = chrome_trace_json([], spans=HAND_BUILT)["traceEvents"]
    lane = [e for e in events if e["tid"] == COMPILER_TID]
    assert _sha(json.dumps(lane, sort_keys=True)) == GOLDENS["compiler_lane"]


def test_chaos_drill_moves_only_the_message_arrows(tmp_path):
    with tracing_context(CTX):
        res, _ = _chaos_jacobi(faults=True)
    events = chrome_trace_json(res.trace, process_name="jacobi")["traceEvents"]
    rest = [e for e in events if e["ph"] not in ("s", "f")]
    assert _sha(json.dumps(rest, sort_keys=True)) == GOLDENS["chaos_nonflow"]
    assert _jsonl_sha(res, tmp_path) == GOLDENS["chaos_jsonl"]
