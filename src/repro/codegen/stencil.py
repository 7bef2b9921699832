"""Generic lowering of data-parallel (stencil) sweeps over 1-D and 2-D arrays.

The paper's opening classification (§1): "if dependent data only
influence neighboring data, an efficient component-alignment algorithm
can be used to partition and distribute data arrays" — i.e. block
distribution plus neighbor Shift communication.  This module implements
that compilation path *generically*, not via a canned template, under
one recognition rule for arrays of any rank r (:func:`match_stencil`):

* every array is r-dimensional and every extent is the size parameter
  ``m`` itself;
* the body is a sequence of perfect r-deep loop nests, optionally inside
  one time loop ``DO t = 1, T``; every loop steps by 1, and every bound
  of a nest is ``c`` or ``m + c`` (so an inner bound ignores the outer
  loop variables);
* every statement writes its own element (owner computes),
  ``A(i, j) = f(B(i + ci, j + cj), ..., scalars)``: each subscript is
  its dimension's loop variable plus a constant;
* every reference stays inside ``1 .. m`` over the nest's bounds;
* the dependence analyzer finds no dependence carried by any loop of a
  nest (each sweep is truly parallel).

:func:`emit_stencil` generates an SPMD program from one listing frame:
block distribution of the first dimension (row blocks of a 2-D array,
whose pads hold whole rows, so column offsets stay local — the §3
alignment default), per-sweep halo exchange sized by the maximal
negative and positive first-dimension offsets of each referenced array
(one Shift per direction), then vectorized local computation compiled
from the expression trees.

The generated program is checked element-for-element against a direct
sequential interpretation of the source.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

from repro.codegen.emitter import CodeWriter
from repro.codegen.spmd import GeneratedProgram
from repro.dependence.analysis import find_dependences
from repro.errors import CodegenError
from repro.lang.affine import Affine
from repro.lang.ast import (
    ArrayRef,
    Assign,
    BinOp,
    DoLoop,
    Expr,
    Num,
    Program,
    ScalarRef,
    UnaryOp,
)
from repro.util.lazy import Lazy

# ---------------------------------------------------------------------------
# pattern
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepStmt:
    """One recognized statement ``lhs(i) = f(refs(i + c), scalars)``."""

    lhs_array: str
    lhs_offset: int
    rhs: Expr
    offsets: tuple[tuple[str, int], ...]  # (array, offset per dimension) read


@dataclass(frozen=True)
class Sweep:
    """One parallel sweep: the loop ``var = lb .. ub`` (bounds ``c`` or
    ``m + c``) around its statements."""

    var: str
    lb: Affine
    ub: Affine
    stmts: tuple[SweepStmt, ...]

    def loops(self) -> str:
        """The sweep's loop headers, as the listing's comment prints them."""
        return f"DO {self.var} = {self.lb}, {self.ub}"


@dataclass(frozen=True)
class Sweep2D(Sweep):
    """A perfect double loop: rows ``var = lb .. ub`` (distributed) around
    columns ``jvar = j_lb .. j_ub`` (local)."""

    jvar: str
    j_lb: Affine
    j_ub: Affine

    def loops(self) -> str:
        return f"{super().loops()} / DO {self.jvar} = {self.j_lb}, {self.j_ub}"


@dataclass(frozen=True)
class StencilPattern(Lazy):
    """A recognized (time-stepped) stencil program over 1-D arrays."""

    kind: ClassVar[str] = "stencil"
    rank: ClassVar[int] = 1
    #: How the listing frame spells this rank: the ring neighbours a
    #: block's halos arrive from (before, after), the first halo tag, the
    #: index suffix that takes whole pad rows, what a sent block is, how
    #: gathered blocks rejoin, and the lowering's name in its assertion.
    neighbours: ClassVar[tuple[str, str]] = ("left", "right")
    halo_tag: ClassVar[int] = 90
    rows: ClassVar[str] = ""
    send: ClassVar[str] = ""
    rejoin: ClassVar[str] = "np.concatenate([np.atleast_1d(b) for b in blocks])"
    label: ClassVar[str] = "stencil lowering"
    size_param: str
    time_param: str | None  # None: single application
    arrays: tuple[str, ...]
    scalars: tuple[str, ...]
    sweeps: tuple[Sweep, ...]

    @property
    def halo(self) -> dict[str, tuple[int, int]]:
        """Per-array halo width (before, after) along the distributed
        first dimension, over all sweeps."""
        halo: dict[str, tuple[int, int]] = {name: (0, 0) for name in self.arrays}
        for sweep in self.sweeps:
            for stmt in sweep.stmts:
                for ref in stmt.offsets:
                    name, off = ref[0], ref[1]
                    left, right = halo[name]
                    halo[name] = (max(left, -off), max(right, off))
        return halo


@dataclass(frozen=True)
class Stencil2DPattern(StencilPattern):
    """A recognized stencil program over 2-D arrays, lowered to row blocks
    on a linear processor array: only halo *rows* travel."""

    kind = "stencil-2d"
    rank = 2
    neighbours = ("up", "down")
    halo_tag = 70
    rows = ", :"
    send = ".copy()"
    rejoin = "np.vstack(blocks)"
    label = "2-D stencil lowering"


def _offset_of(sub: Affine, var: str) -> int | None:
    """The c of ``var + c``; None if the subscript has any other shape."""
    return sub.const if sub.coeffs == {var: 1} else None


def _scan_rhs(
    expr: Expr, program: Program, on_ref: Callable[[ArrayRef], bool]
) -> bool:
    """Walk a right-hand side; True iff it is a stencil expression.

    Scalars must be declared; *on_ref* accepts (and records) or rejects
    each array reference.
    """
    if isinstance(expr, Num):
        return True
    if isinstance(expr, ScalarRef):
        return expr.name in program.scalars or expr.name in program.params
    if isinstance(expr, ArrayRef):
        return on_ref(expr)
    if isinstance(expr, UnaryOp):
        return _scan_rhs(expr.operand, program, on_ref)
    if isinstance(expr, BinOp):
        return _scan_rhs(expr.left, program, on_ref) and _scan_rhs(
            expr.right, program, on_ref
        )
    return False


def _extract_stmt(stmt: Assign, nest_vars: tuple[str, ...], program: Program) -> SweepStmt | None:
    """*stmt* as a sweep statement: it writes ``A(nest_vars)`` from
    references ``B(nest_vars + c)``, numbers and declared scalars."""
    rank = len(nest_vars)

    def offsets_of(ref: ArrayRef) -> tuple[int | None, ...]:
        if len(ref.subscripts) != rank:
            return (None,)
        return tuple(map(_offset_of, ref.subscripts, nest_vars))

    lhs = stmt.lhs
    # Owner computes: iteration (i, j) must write its own element A(i, j).
    if not isinstance(lhs, ArrayRef) or offsets_of(lhs) != (0,) * rank:
        return None
    offsets: list[tuple] = []

    def on_ref(ref: ArrayRef) -> bool:
        offs = offsets_of(ref)
        if None in offs:
            return False
        offsets.append((ref.name, *offs))
        return True

    if not _scan_rhs(stmt.rhs, program, on_ref):
        return None
    return SweepStmt(lhs_array=lhs.name, lhs_offset=0, rhs=stmt.rhs, offsets=tuple(offsets))


def _extract_sweep(loop: DoLoop, program: Program, size_param: str, rank: int) -> Sweep | None:
    """*loop* as a sweep: a perfect *rank*-deep nest of sweep statements
    whose references stay inside ``1 .. m`` and which no loop of the nest
    carries a dependence through."""
    nest = [loop]
    while len(nest) < rank:
        body = nest[-1].body
        if len(body) != 1 or not isinstance(body[0], DoLoop):
            return None
        nest.append(body[0])
    nest_vars = tuple([level.var for level in nest])
    stmts: list[SweepStmt] = []
    for stmt in nest[-1].body:
        if not isinstance(stmt, Assign):
            return None
        extracted = _extract_stmt(stmt, nest_vars, program)
        if extracted is None:
            return None
        stmts.append(extracted)
    if not stmts:
        return None
    # In range: over bounds c0 .. m + c1, an offset d reads c0 + d .. m + c1 + d.
    for dim, level in enumerate(nest, start=1):
        if not level.lb.is_constant or level.ub.coeffs != {size_param: 1}:
            return None
        reach = [0] + [offs[dim] for st in stmts for offs in st.offsets]
        if level.lb.const + min(reach) < 1 or level.ub.const + max(reach) > 0:
            return None
    # Parallelism check: no dependence carried by any loop of the nest.
    for dep in find_dependences([loop]):
        if dep.carried_level() is not None:
            return None
    if rank == 1:
        return Sweep(var=loop.var, lb=loop.lb, ub=loop.ub, stmts=tuple(stmts))
    inner = nest[1]
    return Sweep2D(loop.var, loop.lb, loop.ub, tuple(stmts), inner.var, inner.lb, inner.ub)


def _time_stepped_sweeps(
    program: Program, size_param: str, rank: int
) -> tuple[str | None, tuple[Sweep, ...]] | None:
    """``(time parameter, sweeps)`` of a stencil candidate, or ``None``.

    A body that is one ``DO t = 1, T`` — ``T`` a bare name other than the
    size parameter — around loops whose bounds ignore ``t`` is a time
    loop and its body the sweep level; otherwise there is no time
    parameter and the program body is.  Every statement at the sweep
    level must be a loop nest :func:`_extract_sweep` accepts, and every
    loop of the program must step by 1: the lowering runs ``T`` time
    steps and vectorizes each sweep over a dense index range.
    """
    if any(isinstance(s, DoLoop) and s.step != 1 for s in program.walk()):
        return None
    time_param, body = None, program.body
    if len(body) == 1 and isinstance(body[0], DoLoop):
        outer = body[0]
        ub = outer.ub
        if (
            outer.lb == Affine.constant(1)
            and ub.const == 0
            and list(ub.coeffs.values()) == [1]
            and size_param not in ub.coeffs
            and all(
                isinstance(s, DoLoop)
                and outer.var not in s.lb.variables() | s.ub.variables()
                for s in outer.body
            )
        ):
            (time_param,), body = ub.coeffs, outer.body
    sweeps = tuple(
        _extract_sweep(s, program, size_param, rank) if isinstance(s, DoLoop) else None
        for s in body
    )
    if not sweeps or None in sweeps:
        return None
    return time_param, sweeps


def match_stencil(program: Program, rank: int) -> StencilPattern | None:
    """Recognize a (time-stepped) sequence of parallel sweeps over
    *rank*-dimensional arrays (1 or 2) under the module's one rule."""
    decls = list(program.arrays.values())
    if not decls:
        return None
    size = decls[0].extents[0].coeffs
    if list(size.values()) != [1] or any(
        len(d.extents) != rank or any(ext.const or ext.coeffs != size for ext in d.extents)
        for d in decls
    ):
        return None
    (size_param,) = size
    found = _time_stepped_sweeps(program, size_param, rank)
    if found is None:
        return None
    time_param, sweeps = found
    return (StencilPattern, Stencil2DPattern)[rank - 1](
        size_param=size_param,
        time_param=time_param,
        arrays=tuple(sorted(program.arrays)),
        scalars=tuple(program.scalars),
        sweeps=sweeps,
    )


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------


def _compile_expr(expr: Expr, sweep: Sweep, halo: dict, lo: str, hi: str) -> str:
    """Compile an expression to a NumPy slice expression over local pads.

    Array ``W`` is held as ``W_pad`` with leading halo ``HL = halo[W][0]``; global
    row ``i + c`` of the block maps to ``W_pad[HL + c + lo : HL + c + hi]``
    (and a 2-D sweep's column ``j + cj`` to ``j0 + cj : j1 + cj``).
    ``lo``/``hi`` are the emitted slice-bound variables (the overlap
    emitter compiles each statement twice, over interior and boundary
    subranges).
    """
    two = isinstance(sweep, Sweep2D)

    def ref(e: ArrayRef) -> str:
        row = halo[e.name][0] + _offset_of(e.subscripts[0], sweep.var)
        window = f"{row} + {lo} : {row} + {hi}"
        if two:
            col = _offset_of(e.subscripts[1], sweep.jvar)
            window += f", j0 + {col} : j1 + {col}"
        return f"pads['{e.name}'][{window}]"

    return _compile_tree(expr, ref)


def _compile_tree(expr: Expr, ref: Callable[[ArrayRef], str]) -> str:
    """Compile an expression tree to NumPy source; *ref* renders array references."""
    if isinstance(expr, Num):
        return repr(float(expr.value))
    if isinstance(expr, ScalarRef):
        return f"env['{expr.name}']"
    if isinstance(expr, ArrayRef):
        return ref(expr)
    if isinstance(expr, UnaryOp):
        operand = _compile_tree(expr.operand, ref)
        return f"(-{operand})" if expr.op == "-" else operand
    if isinstance(expr, BinOp):
        left = _compile_tree(expr.left, ref)
        right = _compile_tree(expr.right, ref)
        return f"({left} {expr.op} {right})"
    raise CodegenError(f"cannot compile expression node {expr!r}")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _halo_side(pattern: StencilPattern, halo: dict, name: str, direction: str, si: int) -> tuple:
    """``(source, dest, tag, send slice, recv slice)`` of one halo side in sweep *si*.

    The halo before the block (*direction* ``"left"``, or ``"up"`` for
    rows) arrives from that neighbor, so the block's last elements go
    the other way; the halo after it mirrors that.  The slices index
    ``pads[name]``.
    """
    before, after = pattern.neighbours
    hl, hr = halo[name]
    rows, send = pattern.rows, pattern.send
    if direction == before:
        tag = pattern.halo_tag + si
        return before, after, tag, f"[cnt:{hl} + cnt{rows}]{send}", f"[:{hl}{rows}]"
    tag = pattern.halo_tag + 100 + si
    return after, before, tag, f"[{hl}:{hl} + {hr}{rows}]{send}", f"[{hl} + cnt:{rows}]"


def _emit_stmts(
    w: CodeWriter,
    sweep: Sweep,
    halo: dict,
    lo: str,
    hi: str,
    label: str,
) -> None:
    """The sweep's statements, vectorized over local rows ``[lo, hi)``
    (and a 2-D sweep's columns ``[j0, j1)``)."""
    two = isinstance(sweep, Sweep2D)
    cols, area = (", j0:j1", " * (j1 - j0)") if two else ("", "")
    for st in sweep.stmts:
        expr = _compile_expr(st.rhs, sweep, halo, lo, hi)
        flops = _count_ops(st.rhs)
        row = halo[st.lhs_array][0]
        if not two:  # a 1-D listing spells out the (zero) write offset
            row = f"{row} + {st.lhs_offset}"
        w.line(f"pads['{st.lhs_array}'][{row} + {lo} : {row} + {hi}{cols}] = {expr}")
        if flops:
            w.line(f"p.compute({flops} * ({hi} - {lo}){area}, label='{label}')")


def _emit_bounds(w: CodeWriter, sweep: Sweep) -> str:
    """Row subrange ``[s0, s1)`` owned by this block, respecting bounds,
    and a 2-D sweep's columns ``[j0, j1)``; returns the test that the
    range is not empty."""
    w.lines(
        f"g_lo = max({_affine_to_py(sweep.lb)}, lo + 1)",
        f"g_hi = min({_affine_to_py(sweep.ub)}, hi)",
        "s0 = g_lo - 1 - lo",
        "s1 = g_hi - lo",
    )
    if not isinstance(sweep, Sweep2D):
        return "s1 > s0"
    w.lines(
        f"j0 = {_affine_to_py(sweep.j_lb)} - 1",
        f"j1 = {_affine_to_py(sweep.j_ub)}",
    )
    return "s1 > s0 and j1 > j0"


def _emit_sweep_program(
    pattern: StencilPattern,
    header: tuple[str, ...],
    strategy: str,
    emit_sweep: Callable[[CodeWriter, int, Sweep, dict], None],
    setup: tuple[str, ...] = (),
) -> GeneratedProgram:
    """The frame every stencil listing shares.

    Prologue (block bounds, ring neighbors, *setup* lines, padded local
    arrays — a 2-D pad holds whole rows), the time loop calling
    ``emit_sweep(w, index, sweep, halo)`` — the caller's per-sweep
    communication shape — and the allgather epilogue.  The pattern's
    halo widths are computed once, here, and handed down.
    """
    halo = pattern.halo
    before, after = pattern.neighbours
    rows = pattern.rows
    w = CodeWriter()
    w.lines(*header)
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"m = int(env['{pattern.size_param}'])",
            "n = p.nprocs",
            f"assert m % n == 0, '{pattern.label} needs N | m'",
            "cnt = m // n",
            "lo = p.rank * cnt",
            "hi = lo + cnt",
            f"{before} = (p.rank - 1) % n",
            f"{after} = (p.rank + 1) % n",
            *setup,
            "pads = {}",
        )
        for name in pattern.arrays:
            hl, hr = halo[name]
            shape = f"cnt + {hl} + {hr}"
            w.lines(
                f"_g = np.asarray(env['{name}'], dtype=np.float64)",
                f"pads['{name}'] = np.zeros({f'({shape}, m)' if rows else shape})",
                f"pads['{name}'][{hl}:{hl} + cnt{rows}] = _g[lo:hi{rows}]",
            )
        steps = f"int(env['{pattern.time_param}'])" if pattern.time_param else "1"
        w.line(f"steps = {steps}")
        with w.block("for _step in range(steps):"):
            for si, sweep in enumerate(pattern.sweeps):
                emit_sweep(w, si, sweep, halo)
        w.line("out = {}")
        for name in pattern.arrays:
            hl = halo[name][0]
            w.lines(
                f"blocks = yield from allgather(p, pads['{name}'][{hl}:{hl} + cnt{rows}]{pattern.send}, tuple(range(n)))",
                f"out['{name}'] = {pattern.rejoin}",
            )
        w.line("return out")
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy=strategy, pattern=pattern
    )


def emit_stencil(pattern: StencilPattern) -> GeneratedProgram:
    """Emit the SPMD stencil program for a recognized pattern of either rank."""

    def blocking_sweep(w: CodeWriter, si: int, sweep: Sweep, halo: dict) -> None:
        w.line(f"# sweep {si + 1}: {sweep.loops()}")
        # Halo exchange (Shift) for the arrays this sweep reads.
        # Boundary wrap values are never consumed: the sweep bounds
        # keep edge iterations away from non-existent neighbors.
        for name in sorted({ref[0] for st in sweep.stmts for ref in st.offsets}):
            for direction, width in zip(pattern.neighbours, halo[name]):
                if width:
                    src, dest, tag, out, into = _halo_side(pattern, halo, name, direction, si)
                    with w.block("if n > 1:"):
                        w.lines(
                            f"p.send({dest}, pads['{name}']{out}, tag={tag})",
                            f"pads['{name}']{into} = yield from p.recv({src}, tag={tag})",
                        )
        with w.block(f"if {_emit_bounds(w, sweep)}:"):
            _emit_stmts(w, sweep, halo, "s0", "s1", "sweep")

    if pattern.rank == 2:
        header = (
            "# generated: row-block 2-D stencil sweeps; halo *rows* exchanged",
            "# with linear-array neighbors (column offsets are local because",
            "# rows are stored whole — the S3 alignment default).",
        )
    else:
        header = (
            "# generated: block-distributed stencil sweeps with neighbor halo",
            "# exchange (paper S1: 'dependent data only influence neighboring",
            "# data' -> component alignment + Shift communication).",
        )
    return _emit_sweep_program(pattern, header, pattern.kind, blocking_sweep)


def _count_ops(expr: Expr) -> int:
    """Arithmetic operations per element of a vectorized statement."""
    if isinstance(expr, BinOp):
        return 1 + _count_ops(expr.left) + _count_ops(expr.right)
    if isinstance(expr, UnaryOp):
        return (1 if expr.op == "-" else 0) + _count_ops(expr.operand)
    return 0


def _affine_to_py(aff: Affine) -> str:
    """A recognized bound (``c`` or ``c + m``) as emitted Python."""
    return " + ".join([str(aff.const)] + [f"{coeff} * m" for coeff in aff.coeffs.values()])
