"""A4 — compile-time cost of the method itself.

The paper argues its analyses run at compile time; this bench measures
the *wall-clock* cost of each compiler stage on real inputs (this is the
one benchmark where pytest-benchmark's timing is the datum rather than
the simulated clock):

* CAG construction + exact alignment on the paper programs;
* Algorithm 1 table construction and DP solve as the loop-sequence
  length s grows (synthetic programs with s pipeline stages);
* full recognize-and-emit code generation.

The per-stage column is wall-clock too: one more pass runs under the
in-program :class:`~repro.util.spans.SpanRecorder` and the summed
duration of each compiler span (``STAGES``) lands in the record's
``extra`` — the same spans ``repro.tools.bench`` profiles, so A4 and
the ledger cannot disagree about where a compile's time goes.
"""

from __future__ import annotations

from repro.alignment import build_cag, exact_alignment
from repro.codegen import generate_spmd
from repro.dp import build_phase_tables
from repro.lang import gauss_program, jacobi_program, parse_program
from repro.machine.model import MachineModel
from repro.util.spans import recording
from repro.util.tables import Table

MODEL = MachineModel(tf=1, tc=10)

#: compiler spans reported per stage; ``alignment/*`` nest inside
#: ``dp/tables`` (and ``alignment/cag`` also wraps the stand-alone
#: ``build_cag`` calls), so the rows overlap and do not sum to the total
STAGES = (
    "dp/tables", "alignment/segment", "alignment/cag", "alignment/solve",
    "dp/solve", "redist/plan", "codegen/emit",
)


def synthetic_sequence(s: int) -> str:
    """A program with s elementwise loops chained through s+1 vectors."""
    arrays = ", ".join(f"V{idx}(m)" for idx in range(s + 1))
    lines = [f"PROGRAM chain{s}", "PARAM m, t", f"ARRAY {arrays}", "DO k = 1, t"]
    for idx in range(s):
        lines += [
            f"  DO i = 1, m",
            f"    V{idx + 1}(i) = V{idx + 1}(i) + V{idx}(i)",
            "  END DO",
        ]
    lines += ["END DO", "END"]
    return "\n".join(lines) + "\n"


def compile_everything():
    out = {}
    # Alignment on the real programs.
    for maker in (jacobi_program, gauss_program):
        program = maker()
        fragment = program.loops()[0].body if program.name == "jacobi" else program.body
        cag = build_cag(fragment, program, {"m": 128, "maxiter": 1}, MODEL, 16)
        exact_alignment(cag, q=2)
        out[f"align:{program.name}"] = len(cag.nodes)
    # DP tables across sequence lengths.
    for s in (2, 4, 6):
        program = parse_program(synthetic_sequence(s))
        tables = build_phase_tables(program, 8, {"m": 64, "t": 1}, MODEL)
        result = tables.solve()
        tables.transition_plans(result)
        out[f"dp:s={s}"] = result.cost
    # Code generation.
    for maker in (jacobi_program, gauss_program):
        gen = generate_spmd(maker())
        out[f"codegen:{maker().name}"] = len(gen.source)
    return out


def test_a4_compile_time(benchmark, emit, record):
    out = benchmark(compile_everything)
    stats = benchmark.stats.stats
    with recording() as rec:
        compile_everything()
    totals = rec.totals()
    stage_ms = {name: totals[name] * 1e3 for name in STAGES}
    record(
        "full-pipeline",
        compile_seconds=stats.mean,
        extra={f"{name}_ms": ms for name, ms in stage_ms.items()},
    )
    table = Table(
        ["stage (span)", "wall-clock ms", "calls"],
        title=f"A4 — compiler stages (full pipeline mean {stats.mean * 1e3:.1f} ms)",
    )
    calls = {name: sum(s.detail == name for s in rec.spans) for name in STAGES}
    for name, ms in stage_ms.items():
        table.add_row([name, f"{ms:.2f}", str(calls[name])])
    emit("a4_compile_time", table.render())

    # Everything completed and the DP solved deeper sequences too.
    assert out["dp:s=6"] > 0
    assert out["codegen:jacobi"] > 200
    # Every stage ran, inside the pipeline it belongs to.
    assert all(ms > 0 for ms in stage_ms.values())
    assert stage_ms["alignment/segment"] <= stage_ms["dp/tables"]
    # The whole compile pipeline is interactive-speed (well under 5 s).
    assert stats.mean < 5.0
