"""Golden capture for the engine-parity stress suite.

The event-calendar engine (docs/ENGINE.md) carries a hard contract:
**bit-identical event timestamps** on every kernel, with ties broken in
the exact (time, rank) order the original scan-based scheduler used.
This module pins that contract to disk: it runs Jacobi/SOR/Cannon at
N=64 and N=256 on both backends and digests every trace event into
``tests/goldens/engine_parity.json``.

The goldens committed in the repo were generated by the *seed* engine
(the pre-calendar scheduler), so any rewrite that reorders ties or
shifts a timestamp — even by one ULP — fails the stress suite in
``tests/test_engine_parity_stress.py``.

Event engine entries also carry a ``metrics_digest``: the trace digest
holds timestamps, but only this pins the *float sums* of
``Metrics.as_dict()`` (rank fields, ``by_kind``, ``by_tag``,
``by_collective`` — order of accumulation included).  Two small cases
cover the branches of the fold the three kernels never reach: a
reliable Jacobi under a seeded ``FaultPlan`` (``fault`` events, acks)
and a ``PostedTransport`` Jacobi (``isend``, overlap accounting).  These
were recorded at the parent of ISSUE 17, before its engine edits.

The timed and the posted receive have their own entries
(``RECEIVE_CASES``): a timeout storm — 12 rounds of expiring
``recv_deadline``, every step through the deadline heap and the stall
step — on both drivers, and the sparse executor's ``gather_ghosts``
(``irecv`` / ``wait`` under ``spmv_parallel``).  They also pin the
message word count and were recorded at the parent of ISSUE 22, before
its engine edits (``python -m tests.parity_goldens`` run from a clone of
that commit *adds* missing keys and leaves existing entries untouched).

Record missing entries — or, after deleting the file, every entry (only
when a change is *supposed* to alter timestamps, which the calendar
rewrite explicitly is not)::

    PYTHONPATH=src python -m tests.parity_goldens
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.kernels import (
    cannon_matmul,
    jacobi_ring_overlap,
    jacobi_rowdist,
    make_spd_system,
    resilient_jacobi,
    sor_pipelined,
    spmv_parallel,
)
from repro.machine import BACKENDS, TIMED_OUT, Grid2D, MachineModel, Ring
from repro.machine.engine import Engine
from repro.machine.faults import FaultPlan
from repro.sparse.csr import random_spd_csr

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "engine_parity.json"

MODEL = MachineModel(tf=1.0, tc=10.0)

#: Problem size of the stress systems.  Small enough that N=256 traces
#: stay in memory, large enough that every rank owns a real block.
M = 256

#: The ``threaded`` rows were recorded when that backend ran one OS
#: thread per rank, capped at 256, so they stop at N=64; the engine rows
#: cover both sizes (and the shuffled engines replay them at both).
THREADED_NS = (64,)
ENGINE_NS = (64, 256)

#: Event-engine-only cases for the fold's ``fault`` and ``isend``
#: branches: ``name -> (kernel, extra run_spmd arguments)`` on ``Ring(8)``.
SMALL_N = 8
SMALL_CASES = {
    "reliable": (
        resilient_jacobi,
        {"faults": FaultPlan(seed=13, delay_prob=0.3, delay_max=30.0,
                             drop_prob=0.15, duplicate_prob=0.15)},
    ),
    "posted": (jacobi_ring_overlap, {"model": MachineModel(tf=1.0, tc=10.0, alpha=100.0)}),
}


def storm(p, rounds):
    """``perf/workloads.py``'s timeout storm: nobody sends on tag 9, so
    every timed receive expires through the calendar and the stall step."""
    fired = 0
    for _ in range(rounds):
        got = yield from p.recv_deadline(
            (p.rank + 1) % p.nprocs, tag=9, deadline=p.clock + 50.0
        )
        if got is TIMED_OUT:
            fired += 1
        p.compute(1, label="tick")
    return fired


def _sparse_gather_args() -> tuple:
    csr = random_spd_csr(64, density=0.15, seed=5)
    return (csr, np.random.default_rng(6).standard_normal(64))


class ReceiveCase(NamedTuple):
    kernel: Callable
    args: Callable[[], tuple]  # built per run, not at import
    kwargs: dict  # run_spmd keyword arguments
    n: int  # ring size
    backends: tuple[str, ...]


#: The timed and the posted receive path.
RECEIVE_CASES = {
    "storm": ReceiveCase(storm, lambda: (12,), {"model": MODEL}, 64, ("engine", "threaded")),
    "sparse-gather": ReceiveCase(
        spmv_parallel, _sparse_gather_args,
        {"model": MachineModel(tf=1, tc=10, alpha=10), "kwargs": {"iterations": 3}},
        8, ("engine",),
    ),
}


def _digest(trace) -> str:
    """SHA-256 over every event of every lane, in (rank, program) order.

    Floats are rendered with ``repr`` (shortest exact round-trip), so
    the digest changes iff any timestamp changes by at least one ULP.
    """
    h = hashlib.sha256()
    for lane in trace:
        for e in lane:
            h.update(
                f"{e.rank}|{e.kind}|{e.start!r}|{e.end!r}|{e.peer}|"
                f"{e.words}|{e.tag}|{e.detail}|{e.scope}\n".encode()
            )
    return h.hexdigest()


def metrics_digest(metrics) -> str:
    """SHA-256 of the ``Metrics.as_dict()`` JSON, ``obs`` group left out
    (run ids differ between processes; nothing else does)."""
    doc = metrics.as_dict()
    doc.pop("obs", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _cases():
    A, b, _ = make_spd_system(M, seed=12)
    x0 = np.zeros(M)
    rng = np.random.default_rng(7)
    B = rng.uniform(-1.0, 1.0, size=(M, M))
    C = rng.uniform(-1.0, 1.0, size=(M, M))
    yield "jacobi", jacobi_rowdist, (A, b, x0, 2), lambda n: Ring(n)
    yield "sor", sor_pipelined, (A, b, x0, 1.0, 2), lambda n: Ring(n)
    q_of = {64: 8, 256: 16}
    yield "cannon", cannon_matmul, None, lambda n: Grid2D(q_of[n], q_of[n])


def _cannon_args(n: int):
    rng = np.random.default_rng(7)
    B = rng.uniform(-1.0, 1.0, size=(M, M))
    C = rng.uniform(-1.0, 1.0, size=(M, M))
    q = {64: 8, 256: 16}[n]
    return (B, C, q)


def _case(name: str, n: int) -> tuple:
    """``(kernel, args, topology, run_spmd keyword arguments)`` of a case."""
    if name in RECEIVE_CASES:
        case = RECEIVE_CASES[name]
        return case.kernel, case.args(), Ring(n), case.kwargs
    if name in SMALL_CASES:
        kernel, extra = SMALL_CASES[name]
        A, b, _ = make_spd_system(4 * n, seed=12)
        return kernel, (A, b, np.zeros(4 * n), 3), Ring(n), {"model": MODEL, **extra}
    for case_name, kernel, args, topo_of in _cases():
        if case_name == name:
            break
    else:  # pragma: no cover - caller passes known names
        raise KeyError(name)
    if name == "cannon":
        args = _cannon_args(n)
    return kernel, args, topo_of(n), {"model": MODEL}


def run_case(
    name: str, backend: str, n: int, trace: bool = True,
    engine_cls: type[Engine] | None = None,
) -> dict:
    """One golden entry: makespan (exact repr), event count, digests.

    ``metrics_digest`` is event-engine only: it was recorded when the
    threaded backend folded the shared histograms in thread order.  An
    untraced run returns the trace-free fields alone.  *engine_cls*
    replaces the backend's engine (a shuffled engine replaying a row).
    """
    kernel, args, topology, kwargs = _case(name, n)
    kwargs = dict(kwargs)
    run_kwargs = kwargs.pop("kwargs", None)
    engine = (engine_cls or BACKENDS[backend])(topology, trace=trace, **kwargs)
    res = engine.run(kernel, args=args, kwargs=run_kwargs)
    out = {
        "makespan": repr(res.makespan),
        "finish_times_digest": hashlib.sha256(
            "".join(repr(t) + "\n" for t in res.finish_times).encode()
        ).hexdigest(),
    }
    if trace:
        out["events"] = sum(len(lane) for lane in res.trace)
        out["trace_digest"] = _digest(res.trace)
    if backend == "engine":
        out["metrics_digest"] = metrics_digest(res.metrics)
    if name in RECEIVE_CASES:
        out["words"] = res.message_words
    return out


def golden_keys() -> list[tuple[str, str, int]]:
    keys = []
    for name in ("jacobi", "sor", "cannon"):
        for n in ENGINE_NS:
            keys.append((name, "engine", n))
        for n in THREADED_NS:
            keys.append((name, "threaded", n))
    for name in SMALL_CASES:
        keys.append((name, "engine", SMALL_N))
    for name, case in RECEIVE_CASES.items():
        keys.extend((name, backend, case.n) for backend in case.backends)
    return keys


def main() -> None:
    """Record every golden the file does not hold yet (delete the file,
    or an entry, to re-record it)."""
    goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for name, backend, n in golden_keys():
        key = f"{name}-N{n}-{backend}"
        if key in goldens:
            continue
        goldens[key] = run_case(name, backend, n)
        print(f"{key}: makespan={goldens[key]['makespan']} "
              f"events={goldens[key]['events']}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
