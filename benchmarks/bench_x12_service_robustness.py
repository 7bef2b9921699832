"""X12 — service robustness: the worker-crash drill is free of drift.

ISSUE 8 hardens the compile service with a supervised subprocess pool.
This bench is the determinism contract made executable: the paper
corpus is batched through a pooled :class:`CompileService` twice —
once crash-free, once with deterministically injected worker SIGKILLs
(the pool's ``chaos_kill_requests``) — and reports:

* **bit-identity** (asserted inline) — the chaos run must return the
  same generated source and the same Algorithm 1 outcome, byte for
  byte, as the clean run; retries recompute pure functions;
* the **crash-overhead ratio** — chaos wall time over clean wall time,
  held by the ``service-crash-overhead`` band: a handful of injected
  kills costs detection + capped-backoff respawn + retry, not a
  respawn storm;
* the supervisor's fault counters (crashes/respawns/retries must equal
  the injected kill count; fallbacks must stay 0 — the pool absorbed
  every crash without degrading);
* a **corrupt-cache drill** — one disk entry is overwritten with
  garbage, the recompile must quarantine it and reproduce the artifact
  bit-identically (counts recorded as ``extra``);
* the summed DP cost of the solved corpus as the deterministic record
  for the +-5% regression gate (wall-clock stays out of the gate).
"""

from __future__ import annotations

import pathlib
import pickle
import tempfile
import time

from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    sor_program,
)
from repro.machine.model import MachineModel
from repro.service import CompileService, WorkerSupervisor
from repro.util.tables import Table

MODEL = MachineModel(tf=1, tc=10)

#: Dispatch sequence numbers SIGKILLed in the chaos pass (0-based over
#: pool dispatches; retries take fresh numbers, so each kill costs
#: exactly one detect+respawn+retry cycle).
CHAOS_KILLS = (0, 3, 7)

POOL_WORKERS = 2


def corpus() -> list[tuple[object, dict]]:
    return [
        (jacobi_program(), {"m": 128, "maxiter": 1}),
        (sor_program(), {"m": 96, "maxiter": 1}),
        (gauss_program(), {"m": 64}),
        (matmul_program(), {"n": 32}),
    ]


def pooled_batch(programs, chaos=()):
    """Run the corpus through a pooled service; returns (results,
    pool stats, wall seconds).  The pool is built inside the timed
    region, so its spawn cost is part of both passes."""
    t0 = time.perf_counter()
    service = CompileService(
        machine=MODEL, cache=None,
        workers=WorkerSupervisor(POOL_WORKERS, MODEL, chaos_kill_requests=chaos),
    )
    results = [
        service.compile(program, nprocs=16, env=env)
        for program, env in programs
    ]
    seconds = time.perf_counter() - t0
    stats = results[-1].service_stats
    service.close()
    return results, stats, seconds


def artifact_bytes(results):
    return [
        (pickle.dumps(r.plan.generated), pickle.dumps(r.outcome))
        for r in results
    ]


def corrupt_cache_drill(programs) -> dict:
    """Corrupt one disk entry; the recompile must quarantine + match."""
    program, env = programs[0]
    with tempfile.TemporaryDirectory(prefix="x12-cache-") as tmp:
        tmp = pathlib.Path(tmp)
        writer = CompileService(machine=MODEL, cache="disk", cache_dir=tmp)
        ref = writer.compile(program, nprocs=16, env=env)
        entry = tmp / f"{ref.digest}.pkl"
        assert entry.exists()
        entry.write_bytes(b"\x00" * 64)

        reader = CompileService(machine=MODEL, cache="disk", cache_dir=tmp)
        res = reader.compile(program, nprocs=16, env=env)
        assert not res.cached  # garbage served as a miss
        assert pickle.dumps(res.plan.generated) == pickle.dumps(
            ref.plan.generated
        )
        quarantined = len(list(reader.cache.quarantine_dir.iterdir()))
        return {
            "cache_corrupt": reader.stats.corrupt,
            "cache_quarantined": quarantined,
        }


def test_x12_service_robustness(emit, record):
    programs = corpus()

    clean, clean_stats, clean_seconds = pooled_batch(programs)
    chaos, chaos_stats, chaos_seconds = pooled_batch(
        programs, chaos=CHAOS_KILLS
    )

    # The determinism contract: injected crashes change nothing.
    assert artifact_bytes(clean) == artifact_bytes(chaos)
    assert clean_stats["pool_crashes"] == 0
    assert chaos_stats["pool_crashes"] == len(CHAOS_KILLS)
    assert chaos_stats["pool_respawns"] == len(CHAOS_KILLS)
    assert chaos_stats["pool_retries"] == len(CHAOS_KILLS)
    assert chaos_stats["fallbacks"] == 0  # the pool absorbed every kill

    drill = corrupt_cache_drill(programs)
    assert drill["cache_corrupt"] == 1
    assert drill["cache_quarantined"] == 1

    overhead = chaos_seconds / clean_seconds
    total_cost = sum(r.outcome.cost for r in clean)

    record(
        "crash-overhead",
        measured=chaos_seconds,
        analytic=clean_seconds,
        band="service-crash-overhead",
        extra={
            "injected_kills": len(CHAOS_KILLS),
            "pool_crashes": chaos_stats["pool_crashes"],
            "pool_respawns": chaos_stats["pool_respawns"],
            "pool_retries": chaos_stats["pool_retries"],
            "fallbacks": chaos_stats["fallbacks"],
            **drill,
        },
    )
    # The deterministic record for the +-5% regression gate: the DP
    # cost of the whole solved corpus (identical clean vs chaos, so
    # either side works; wall-clock stays out of the gated field).
    record("corpus-cost", makespan=total_cost)

    table = Table(
        ["quantity", "value"],
        title=(
            f"X12 — service robustness ({len(programs)}-program corpus, "
            f"{POOL_WORKERS} workers, {len(CHAOS_KILLS)} injected kills)"
        ),
    )
    table.add_row(["clean batch", f"{clean_seconds * 1e3:.1f} ms"])
    table.add_row(["chaos batch", f"{chaos_seconds * 1e3:.1f} ms"])
    table.add_row(["crash overhead", f"{overhead:.2f}x"])
    table.add_row(["crashes/respawns/retries",
                   f"{chaos_stats['pool_crashes']}/"
                   f"{chaos_stats['pool_respawns']}/"
                   f"{chaos_stats['pool_retries']}"])
    table.add_row(["corrupt entries quarantined",
                   str(drill["cache_quarantined"])])
    table.add_row(["corpus DP cost", f"{total_cost:g}"])
    emit("x12_service_robustness", table.render())
    emit.json(
        "x12_service_robustness",
        {
            "clean_seconds": clean_seconds,
            "chaos_seconds": chaos_seconds,
            "overhead": overhead,
            "injected_kills": len(CHAOS_KILLS),
            "corpus_cost": total_cost,
            **{k: int(v) for k, v in chaos_stats.items()},
            **drill,
        },
    )

    assert total_cost > 0
