"""Byte-identity goldens for the kernel policy refactor (ISSUE 14).

``tests/goldens/kernel_policies.json`` was captured at the commit
*before* the hand-copied kernel twins (blocking / overlapped / acked /
checkpointed bodies) collapsed into one body per algorithm run under a
transport and a checkpoint hook pair.  One body under three transports
must reproduce what the copies did, byte for byte:

* ``engine`` — every policy entry point on the event engine at
  ``alpha in {0, 100}``: sha256 of the ``TraceStore.write_jsonl`` bytes
  under one fixed ``TraceContext(run_id="run-golden")``, makespan,
  message count / words, and sha256 of each rank's returned value;
* ``threaded`` — makespan and value digests on the threaded engine;
* ``faults`` — the three resilient kernels under one seeded
  drop/duplicate/delay ``FaultPlan`` (trace bytes and fault counters on
  the event engine, makespan and values on the threaded one);
* ``crash`` — the same three through one ``run_resilient``
  crash/restart from a checkpoint;
* ``codegen`` — sha256 of the generated source for the ``stencil``,
  ``stencil-overlap`` and 2-D stencil strategies.

The three §6 Gauss kernels (cyclic and block rows) joined at the commit
before ISSUE 18 left them one elimination and one back-substitution body
with the propagation (multicast or ring Shift) passed in.

Regenerate (only when a change is *supposed* to move an event)::

    PYTHONPATH=src python -m tests.test_kernel_policy_goldens
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro.codegen import generate_spmd
from repro.distribution.sparse import SparsePlacement
from repro.kernels import (
    cg_parallel,
    gauss_broadcast,
    gauss_pipelined,
    gauss_pivoted,
    heat_stencil_blocking,
    heat_stencil_overlap,
    jacobi_ring_blocking,
    jacobi_ring_overlap,
    jacobi_rowdist,
    jacobi_rowdist_adaptive,
    make_spd_system,
    resilient_cg,
    resilient_jacobi,
    resilient_sor,
    sor_pipelined,
    sor_pipelined_overlap,
    sparse_cg_parallel,
    spmv_parallel,
)
from repro.lang import parse_program
from repro.machine import CheckpointStore, MachineModel, Ring, run_resilient, run_spmd
from repro.machine.faults import FaultPlan
from repro.machine.threaded import run_spmd_threaded
from repro.obs import TraceContext, TraceStore, tracing_context
from repro.pipeline.inspector import build_comm_schedule
from repro.sparse.csr import random_spd_csr
from tests.test_stencil2d_codegen import HEAT2D
from tests.test_stencil_codegen import HEAT

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "kernel_policies.json"
CTX = TraceContext(run_id="run-golden")
P = 4
ALPHAS = (0.0, 100.0)
CHAOS = FaultPlan(
    seed=13, delay_prob=0.3, delay_max=30.0, drop_prob=0.15, duplicate_prob=0.15
)

WIDE = (
    "PROGRAM w\nPARAM m, steps\nARRAY U(m), W(m)\n"
    "DO t = 1, steps\n"
    "  DO i = 3, m - 2\n    U(i) = W(i - 2) + W(i + 2)\n  END DO\n"
    "  DO i = 3, m - 2\n    W(i) = U(i)\n  END DO\n"
    "END DO\nEND\n"
)
SINGLE = (
    "PROGRAM s\nPARAM m\nARRAY U(m), W(m)\n"
    "DO i = 2, m - 1\n  U(i) = W(i - 1) - W(i + 1)\nEND DO\nEND\n"
)
ANISO = (
    "PROGRAM a\nPARAM m\nARRAY U(m, m), W(m, m)\n"
    "DO i = 3, m\nDO j = 1, m - 3\n"
    "U(i, j) = W(i - 2, j + 3)\nEND DO\nEND DO\nEND\n"
)
SOURCES = {
    "stencil/heat": (HEAT, "stencil"),
    "stencil/wide": (WIDE, "stencil"),
    "stencil/single": (SINGLE, "stencil"),
    "stencil-overlap/heat": (HEAT, "stencil-overlap"),
    "stencil-overlap/wide": (WIDE, "stencil-overlap"),
    "stencil-overlap/single": (SINGLE, "stencil-overlap"),
    "stencil-2d/heat2d": (HEAT2D, None),
    "stencil-2d/aniso": (ANISO, None),
}


@functools.cache
def _cases() -> dict[str, tuple]:
    """``name -> (kernel, args, kwargs)``, all on ``Ring(P)`` (kernels copy their inputs)."""
    A, b, _ = make_spd_system(16, seed=4)
    x0 = np.zeros(16)
    u0 = np.random.default_rng(0).normal(size=32)
    csr = random_spd_csr(64, density=0.08, seed=42)
    rng = np.random.default_rng(7)
    xs, bs = rng.standard_normal(64), rng.standard_normal(64)
    schedule = build_comm_schedule(SparsePlacement(csr.pattern, P))
    gauss = {
        f"{kernel.__name__}/{dist}": (kernel, (A, b, dist), {})
        for kernel in (gauss_broadcast, gauss_pivoted, gauss_pipelined)
        for dist in ("cyclic", "block")
    }
    return gauss | {
        "jacobi_rowdist": (jacobi_rowdist, (A, b, x0, 4), {}),
        "jacobi_rowdist_adaptive": (jacobi_rowdist_adaptive, (A, b, x0, 1e-3, 12), {}),
        "resilient_jacobi": (resilient_jacobi, (A, b, x0, 4), {}),
        "cg_parallel": (cg_parallel, (A, b), {"max_iterations": 6}),
        "resilient_cg": (resilient_cg, (A, b), {"max_iterations": 6}),
        "sor_pipelined": (sor_pipelined, (A, b, x0, 1.2, 2), {}),
        "sor_pipelined_overlap": (sor_pipelined_overlap, (A, b, x0, 1.2, 2), {}),
        "resilient_sor": (resilient_sor, (A, b, x0, 1.2, 2), {}),
        "jacobi_ring_blocking": (jacobi_ring_blocking, (A, b, x0, 3), {}),
        "jacobi_ring_overlap": (jacobi_ring_overlap, (A, b, x0, 3), {}),
        "heat_stencil_blocking": (heat_stencil_blocking, (u0, 4), {}),
        "heat_stencil_overlap": (heat_stencil_overlap, (u0, 4), {}),
        "spmv_parallel": (spmv_parallel, (csr, xs), {"iterations": 3}),
        "spmv_parallel/scheduled": (
            spmv_parallel, (csr, xs), {"iterations": 3, "schedule": schedule},
        ),
        "sparse_cg_parallel": (sparse_cg_parallel, (csr, bs), {"max_iterations": 6}),
        "sparse_cg_parallel/scheduled": (
            sparse_cg_parallel, (csr, bs),
            {"max_iterations": 6, "schedule": schedule, "aggregate_words": 8},
        ),
    }


RESILIENT = ("resilient_jacobi", "resilient_sor", "resilient_cg")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _value_sha(value) -> str:
    """Digest of a rank's return value (array, scalar, or tuple of them)."""
    if isinstance(value, tuple):
        return _sha("|".join(_value_sha(v) for v in value).encode())
    if isinstance(value, np.ndarray):
        return _sha(f"{value.dtype}{value.shape}".encode() + value.tobytes())
    return _sha(repr(value).encode())


def _model(alpha: float) -> MachineModel:
    return MachineModel(tf=1, tc=10, alpha=alpha)


def _record(res, traced: bool = True) -> dict:
    out = {
        "makespan": repr(res.makespan),
        "values": [_value_sha(v) for v in res.values],
    }
    if traced:
        with tempfile.TemporaryDirectory() as tmp:
            path = TraceStore.from_run(res).write_jsonl(pathlib.Path(tmp) / "e.jsonl")
            out["jsonl"] = _sha(path.read_bytes())
        out["message_count"] = res.message_count
        out["message_words"] = res.message_words
        out["faults"] = dict(sorted(res.metrics.faults.items()))
    return out


def engine_record(name: str, alpha: float, faults: FaultPlan | None = None) -> dict:
    kernel, args, kwargs = _cases()[name]
    with tracing_context(CTX):
        res = run_spmd(kernel, Ring(P), _model(alpha), args=args, kwargs=kwargs,
                       trace=True, faults=faults)
    return _record(res)


def threaded_record(name: str, alpha: float, faults: FaultPlan | None = None) -> dict:
    kernel, args, kwargs = _cases()[name]
    res = run_spmd_threaded(kernel, Ring(P), _model(alpha), args=args,
                            kwargs=kwargs, faults=faults)
    return _record(res, traced=False)


def crash_record(name: str) -> dict:
    kernel, args, kwargs = _cases()[name]
    model = _model(0.0)
    base = run_spmd(kernel, Ring(P), model, args=args, kwargs=kwargs)
    store = CheckpointStore(P)
    plan = FaultPlan(seed=2).with_crash(1, at_time=base.makespan * 0.6)
    with tracing_context(CTX):
        res = run_resilient(
            kernel, Ring(P), model, args=args,
            kwargs={**kwargs, "checkpoints": store, "interval": 1},
            plan=plan, trace=True,
        )
    return {**_record(res.result), "restarts": res.restarts,
            "saves": store.saves, "restores": store.restores}


def source_sha(key: str) -> str:
    text, strategy = SOURCES[key]
    program = parse_program(text)
    gen = generate_spmd(program, strategy=strategy) if strategy else generate_spmd(program)
    assert gen.strategy == key.split("/")[0]
    return _sha(gen.source.encode())


def capture() -> dict:
    names = sorted(_cases())
    return {
        "engine": {f"{n}@{a:g}": engine_record(n, a) for n in names for a in ALPHAS},
        "threaded": {f"{n}@{a:g}": threaded_record(n, a) for n in names for a in ALPHAS},
        "faults": {
            n: {"engine": engine_record(n, 0.0, CHAOS),
                "threaded": threaded_record(n, 0.0, CHAOS)}
            for n in RESILIENT
        },
        "crash": {n: crash_record(n) for n in RESILIENT},
        "codegen": {key: source_sha(key) for key in sorted(SOURCES)},
    }


GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def _split(key: str) -> tuple[str, float]:
    name, alpha = key.rsplit("@", 1)
    return name, float(alpha)


@pytest.mark.parametrize("key", sorted(GOLDENS.get("engine", ())))
def test_engine_run_is_byte_identical(key):
    assert engine_record(*_split(key)) == GOLDENS["engine"][key]


@pytest.mark.parametrize("key", sorted(GOLDENS.get("threaded", ())))
def test_threaded_run_is_bit_identical(key):
    assert threaded_record(*_split(key)) == GOLDENS["threaded"][key]


@pytest.mark.parametrize("name", RESILIENT)
def test_resilient_kernel_under_seeded_faults(name):
    assert engine_record(name, 0.0, CHAOS) == GOLDENS["faults"][name]["engine"]
    assert threaded_record(name, 0.0, CHAOS) == GOLDENS["faults"][name]["threaded"]


@pytest.mark.parametrize("name", RESILIENT)
def test_resilient_kernel_through_crash_restart(name):
    record = crash_record(name)
    assert record["restarts"] == 1 and record["restores"] == P
    assert record == GOLDENS["crash"][name]


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_generated_stencil_source_is_byte_identical(key):
    assert source_sha(key) == GOLDENS["codegen"][key]


def test_golden_covers_every_case():
    assert sorted(_split(k)[0] for k in GOLDENS["engine"]) == sorted(
        n for n in _cases() for _ in ALPHAS
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
