"""Emission of overlapped (latency-hiding) stencil programs.

:func:`emit_stencil_overlap` prints the SPMD listing for the rewritten
loop bodies produced by the overlap scheduling pass
(:func:`repro.pipeline.overlap.overlap_schedule`): per sweep,

    post irecv  ->  isend halos  ->  compute interior
                ->  wait         ->  compute boundary strips

instead of the blocking ``exchange ; compute whole block`` shape of
:func:`repro.codegen.stencil.emit_stencil`.  Both listings are printed
by one frame (:func:`repro.codegen.stencil._emit_sweep_program`:
prologue, pad layout, bounds arithmetic, allgather finish), and each
statement is compiled by the same expression compiler over
interior/boundary subranges of the same block range — NumPy elementwise
ops are elementwise-identical under slicing, so the emitted program's
results are bit-identical to the blocking listing's.
"""

from __future__ import annotations

from repro.codegen.emitter import CodeWriter
from repro.codegen.spmd import GeneratedProgram
from repro.codegen.stencil import (
    StencilPattern,
    Sweep,
    _emit_bounds,
    _emit_stmts,
    _emit_sweep_program,
    _halo_side,
)
from repro.pipeline.overlap import OverlapSchedule, overlap_schedule


def emit_stencil_overlap(
    pattern: StencilPattern, schedule: OverlapSchedule | None = None
) -> GeneratedProgram:
    """Emit the overlapped SPMD stencil program for a recognized pattern.

    *schedule* defaults to running the overlap pass on *pattern*; passing
    one in lets callers inspect/render the same rewrite that was emitted.
    """
    sched = schedule if schedule is not None else overlap_schedule(pattern)

    def overlapped_sweep(w: CodeWriter, si: int, sweep: Sweep, halo: dict) -> None:
        ov = sched.sweeps[si]
        w.line(f"# sweep {si + 1}: {sweep.loops()}  [{' -> '.join(ov.phases)}]")
        halos = [
            (
                f"req_{ex.direction[0]}_{ex.array}",
                ex.array,
                *_halo_side(pattern, halo, ex.array, ex.direction, si),
            )
            for ex in ov.exchanges
        ]
        if halos:
            with w.block("if n > 1:"):
                # Phase 1: post every receive before anything moves.
                for req, _name, src, _dest, tag, _out, _into in halos:
                    w.line(f"{req} = comm.irecv({src}, tag={tag})")
                # Phase 2: post the matching halo sends.
                for _req, name, _src, dest, tag, out, _into in halos:
                    w.line(f"comm.isend({dest}, pads['{name}']{out}, tag={tag})")
        guard = _emit_bounds(w, sweep)
        if not halos:
            with w.block(f"if {guard}:"):
                _emit_stmts(w, sweep, halo, "s0", "s1", "sweep")
            return
        # Phase 3: interior — stencil windows stay inside the pad.
        w.lines(
            f"i0 = min(max(s0, {ov.margin_left}), s1)",
            f"i1 = max(min(s1, cnt - {ov.margin_right}), i0)",
        )
        with w.block("if i1 > i0:"):
            _emit_stmts(w, sweep, halo, "i0", "i1", "interior")
        # Phase 4: wait for the halos the boundary strips need.
        with w.block("if n > 1:"):
            for req, name, _src, _dest, _tag, _out, into in halos:
                w.line(f"pads['{name}']{into} = yield from {req}.wait()")
        # Phase 5: boundary strips (the deferred block edges).
        with w.block("for b0, b1 in ((s0, i0), (i1, s1)):"):
            with w.block("if b1 > b0:"):
                _emit_stmts(w, sweep, halo, "b0", "b1", "boundary")

    header = (
        "# generated: block-distributed stencil sweeps with halo transfers",
        "# hidden behind interior compute (overlap pass: post irecv ->",
        "# isend -> compute interior -> wait -> compute boundary strips).",
    )
    return _emit_sweep_program(
        pattern,
        header,
        "stencil-overlap",
        overlapped_sweep,
        setup=("comm = NBComm(p)",),
    )
