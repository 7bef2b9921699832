"""X11 — the compile service: plan-cache hit rate and warm throughput.

ISSUE 7's service turns the compiler into a content-addressed function:
canonicalized IR + machine parameters -> Plan.  This bench batches the
paper corpus (the four reference programs plus two synthetic loop
sequences that stress Algorithm 1) through a :class:`CompileService`
twice and reports:

* the warm-pass hit rate — must be exactly 100% (``compile-hit-rate``
  band: a miss on an unchanged corpus means the canonical digest is
  unstable);
* the cold/warm wall-clock ratio — warm compiles skip alignment, the
  DP and codegen, so the drift oracle holds a floor on it (the
  ``compile-warm-speedup`` band, which the final assert reads too);
* cold/warm throughput in programs per second and warm milliseconds per
  request (wall-clock, recorded as ``extra`` — never gated);
* the summed DP cost of the solved corpus as the record of note for the
  regression gate (deterministic, unlike the timings).

Bit-identity of cached plans is asserted inline: the warm batch must
return the same generated source and the same solve cost per program.
"""

from __future__ import annotations

import time

from repro.costmodel.bands import get_band
from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    parse_program,
    sor_program,
)
from repro.machine.model import MachineModel
from repro.service import CompileService
from repro.util.tables import Table

MODEL = MachineModel(tf=1, tc=10)


def synthetic_sequence(s: int) -> str:
    """A program with s elementwise loops chained through s+1 vectors."""
    arrays = ", ".join(f"V{idx}(m)" for idx in range(s + 1))
    lines = [f"PROGRAM chain{s}", "PARAM m, t", f"ARRAY {arrays}", "DO k = 1, t"]
    for idx in range(s):
        lines += [
            "  DO i = 1, m",
            f"    V{idx + 1}(i) = V{idx + 1}(i) + V{idx}(i)",
            "  END DO",
        ]
    lines += ["END DO", "END"]
    return "\n".join(lines) + "\n"


def corpus() -> list[tuple[object, dict]]:
    return [
        (jacobi_program(), {"m": 256, "maxiter": 1}),
        (sor_program(), {"m": 128, "maxiter": 1}),
        (gauss_program(), {"m": 96}),
        (matmul_program(), {"n": 48}),
        (parse_program(synthetic_sequence(6)), {"m": 256, "t": 1}),
        (parse_program(synthetic_sequence(10)), {"m": 256, "t": 1}),
    ]


def batch(service: CompileService, programs: list[tuple[object, dict]]):
    out = []
    for program, env in programs:
        out.append(service.compile(program, nprocs=16, env=env))
    return out


def test_x11_compile_service(emit, record):
    programs = corpus()
    service = CompileService(machine=MODEL)

    t0 = time.perf_counter()
    cold = batch(service, programs)
    cold_seconds = time.perf_counter() - t0

    cold_stats = service.stats.as_dict()

    t0 = time.perf_counter()
    warm = batch(service, programs)
    warm_seconds = time.perf_counter() - t0
    warm_hits = service.stats.hits - cold_stats["hits"]
    warm_lookups = (service.stats.lookups) - (
        cold_stats["hits"] + cold_stats["misses"]
    )
    hit_rate = warm_hits / warm_lookups

    # Bit-identity: the cache returned the same artifacts it stored.
    for a, b in zip(cold, warm):
        assert not a.cached and b.cached and b.solve_cached
        assert b.source == a.source
        assert b.outcome.cost == a.outcome.cost

    total_cost = sum(r.outcome.cost for r in cold)
    speedup = cold_seconds / warm_seconds

    record(
        "hit-rate",
        measured=hit_rate,
        analytic=1.0,
        band="compile-hit-rate",
        extra={"warm_hits": warm_hits, "warm_lookups": warm_lookups},
    )
    record(
        "warm-speedup",
        measured=cold_seconds,
        analytic=warm_seconds,
        band="compile-warm-speedup",
        compile_seconds=cold_seconds,
        extra={
            "cold_programs_per_s": len(programs) / cold_seconds,
            "warm_programs_per_s": len(programs) / warm_seconds,
            "warm_ms_per_request": warm_seconds * 1e3 / len(programs),
        },
    )
    # The deterministic record for the +-5% regression gate: the DP cost
    # of the whole solved corpus (timings above are wall-clock and are
    # deliberately kept out of the gated makespan field).
    record("corpus-cost", makespan=total_cost)

    table = Table(
        ["quantity", "value"],
        title=f"X11 — compile service ({len(programs)}-program corpus, N=16)",
    )
    table.add_row(["cold batch", f"{cold_seconds * 1e3:.1f} ms"])
    table.add_row(["warm batch", f"{warm_seconds * 1e3:.1f} ms"])
    table.add_row(["warm speedup", f"{speedup:.1f}x"])
    table.add_row(["warm hit rate", f"{hit_rate:.0%}"])
    table.add_row(["corpus DP cost", f"{total_cost:g}"])
    emit("x11_compile_service", table.render())
    emit.json(
        "x11_compile_service",
        {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "hit_rate": hit_rate,
            "corpus_cost": total_cost,
            "programs": len(programs),
        },
    )

    assert hit_rate == 1.0
    assert speedup >= get_band("compile-warm-speedup").lower
    assert total_cost > 0
