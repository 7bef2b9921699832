"""Generic lowering of 1-D data-parallel (stencil) sweeps.

The paper's opening classification (§1): "if dependent data only
influence neighboring data, an efficient component-alignment algorithm
can be used to partition and distribute data arrays" — i.e. block
distribution plus neighbor Shift communication.  This module implements
that compilation path *generically*, not via a canned template:

* :func:`match_stencil_sweep` recognizes an (optionally time-stepped)
  sequence of 1-D parallel loops whose statements assign ``A(i)`` from
  references ``B(i + c)`` with constant offsets, verifying with the
  dependence analyzer that no loop carries a dependence at its own level
  (each sweep is truly parallel);
* :func:`emit_stencil` generates an SPMD program: block distribution of
  every array, per-sweep halo exchange sized by the maximal negative and
  positive offsets of each referenced array (one Shift per direction),
  then vectorized local computation compiled from the expression trees.

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
    """One recognized statement ``lhs(i + c0) = f(refs(i + c), scalars)``."""

    lhs_array: str
    lhs_offset: int
    rhs: Expr
    offsets: tuple[tuple[str, int], ...]  # (array, offset) pairs read


@dataclass(frozen=True)
class Sweep:
    """One parallel loop over ``var = lb .. ub`` (bounds affine in m)."""

    var: str
    lb: Affine
    ub: Affine
    stmts: tuple[SweepStmt, ...]


@dataclass(frozen=True)
class StencilPattern(Lazy):
    """A recognized (time-stepped) stencil program."""

    kind: ClassVar[str] = "stencil"
    size_param: str
    time_param: str | None  # None: single application
    arrays: tuple[str, ...]
    scalars: tuple[str, ...]
    sweeps: tuple[Sweep, ...]

    @property
    def halo(self) -> dict[str, tuple[int, int]]:
        """Per-array (left, right) halo width over all sweeps."""
        halo: dict[str, tuple[int, int]] = {name: (0, 0) for name in self.arrays}
        for sweep in self.sweeps:
            for stmt in sweep.stmts:
                for name, off in stmt.offsets:
                    left, right = halo[name]
                    halo[name] = (max(left, -off), max(right, off))
        return halo


def _offset_of(sub: Affine, var: str) -> int | None:
    """The c of ``var + c``; None if the subscript has any other shape."""
    if sub.coeff(var) != 1:
        return None
    rest = sub - Affine.var(var)
    return rest.const if rest.is_constant else None


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


def _extract_stmt(stmt: Assign, var: str, program: Program) -> SweepStmt | None:
    lhs = stmt.lhs
    if not isinstance(lhs, ArrayRef) or lhs.rank != 1:
        return None
    lhs_off = _offset_of(lhs.subscripts[0], var)
    if lhs_off != 0:
        # Owner computes: iteration i must write its own element A(i).
        return None
    offsets: list[tuple[str, int]] = []

    def on_ref(ref: ArrayRef) -> bool:
        off = _offset_of(ref.subscripts[0], var) if ref.rank == 1 else None
        if off is not None:
            offsets.append((ref.name, off))
        return off is not None

    if not _scan_rhs(stmt.rhs, program, on_ref):
        return None
    return SweepStmt(
        lhs_array=lhs.name,
        lhs_offset=lhs_off,
        rhs=stmt.rhs,
        offsets=tuple(offsets),
    )


def _extract_sweep(loop: DoLoop, program: Program) -> Sweep | None:
    stmts: list[SweepStmt] = []
    for stmt in loop.body:
        if not isinstance(stmt, Assign):
            return None
        extracted = _extract_stmt(stmt, loop.var, program)
        if extracted is None:
            return None
        stmts.append(extracted)
    if not stmts:
        return None
    # Parallelism check: no dependence carried by this loop itself.
    for dep in find_dependences([loop]):
        if dep.carried_level() == 0:
            return None
    return Sweep(var=loop.var, lb=loop.lb, ub=loop.ub, stmts=tuple(stmts))


def _time_stepped_sweeps(
    program: Program, size_param: str, extract: Callable[[DoLoop, Program], object | None]
) -> tuple[str | None, tuple] | None:
    """``(time parameter, sweeps)`` of a stencil candidate, or ``None``.

    A body that is one ``DO t = 1, T`` — ``T`` a bare name other than the
    size parameter — around loops whose bounds ignore ``t`` is a time
    loop and its body the sweep level; otherwise there is no time
    parameter and the program body is.  Every statement at the sweep
    level must be a loop that *extract* accepts, and every loop of the
    program must step by 1: the lowerings run ``T`` time steps and
    vectorize each sweep over a dense index range.
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
    sweeps = tuple(extract(s, program) if isinstance(s, DoLoop) else None for s in body)
    if not sweeps or None in sweeps:
        return None
    return time_param, sweeps


def match_stencil_sweep(program: Program) -> StencilPattern | None:
    """Recognize a (time-stepped) sequence of parallel 1-D sweeps."""
    arrays = tuple(sorted(program.arrays))
    if any(program.arrays[a].rank != 1 for a in arrays):
        return None
    if len(program.params) < 1:
        return None
    size_param = None
    for name, decl in program.arrays.items():
        ext = decl.extents[0]
        if len(ext.coeffs) == 1 and ext.const == 0:
            (var, coeff), = ext.coeffs.items()
            if coeff == 1:
                size_param = size_param or var
                if var != size_param:
                    return None
    if size_param is None:
        return None

    found = _time_stepped_sweeps(program, size_param, _extract_sweep)
    if found is None:
        return None
    time_param, sweeps = found
    return StencilPattern(
        size_param=size_param,
        time_param=time_param,
        arrays=arrays,
        scalars=tuple(program.scalars),
        sweeps=sweeps,
    )


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------


def _compile_expr(
    expr: Expr,
    var: str,
    pattern: StencilPattern,
    lo_name: str = "s0",
    hi_name: str = "s1",
) -> str:
    """Compile an expression to a NumPy slice expression over local pads.

    Array ``W`` is held as ``W_pad`` with left halo ``HL[W]``; global
    element ``i + c`` of the block maps to ``W_pad[HL + c : HL + c + cnt]``.
    ``lo_name``/``hi_name`` are the emitted slice-bound variables (the
    overlap emitter compiles each statement twice, over interior and
    boundary subranges).
    """
    halo = pattern.halo

    def ref(e: ArrayRef) -> str:
        off = _offset_of(e.subscripts[0], var)
        assert off is not None
        lo = halo[e.name][0] + off
        return f"pads['{e.name}'][{lo} + {lo_name} : {lo} + {hi_name}]"

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


def _halo_side(pattern: StencilPattern, name: str, direction: str, si: int) -> tuple:
    """``(source, dest, tag, send slice, recv slice)`` of one halo side in sweep *si*.

    The ``"left"`` halo of *name* arrives from the left neighbor (so the
    block's rightmost elements go right); ``"right"`` mirrors it.  The
    slices index ``pads[name]``.
    """
    hl, hr = pattern.halo[name]
    if direction == "left":
        return "left", "right", 90 + si, f"[cnt:{hl} + cnt]", f"[:{hl}]"
    return "right", "left", 190 + si, f"[{hl}:{hl} + {hr}]", f"[{hl} + cnt:]"


def _emit_stmts(
    w: CodeWriter,
    sweep: Sweep,
    pattern: StencilPattern,
    lo: str,
    hi: str,
    label: str,
) -> None:
    """The sweep's statements, vectorized over local elements ``[lo, hi)``."""
    for st in sweep.stmts:
        expr = _compile_expr(st.rhs, sweep.var, pattern, lo_name=lo, hi_name=hi)
        flops = _count_ops(st.rhs)
        hl = pattern.halo[st.lhs_array][0]
        off = st.lhs_offset
        w.line(
            f"pads['{st.lhs_array}'][{hl} + {off} + {lo} : {hl} + {off} + {hi}] = {expr}"
        )
        if flops:
            w.line(f"p.compute({flops} * ({hi} - {lo}), label='{label}')")


def _emit_bounds(w: CodeWriter, sweep: Sweep, pattern: StencilPattern) -> None:
    """Iteration subrange ``[s0, s1)`` owned by this block, respecting bounds."""
    lb_expr = _affine_to_py(sweep.lb, pattern.size_param)
    ub_expr = _affine_to_py(sweep.ub, pattern.size_param)
    w.lines(
        f"g_lo = max({lb_expr}, lo + 1)",
        f"g_hi = min({ub_expr}, hi)",
        "s0 = g_lo - 1 - lo",
        "s1 = g_hi - lo",
    )


def _emit_sweep_program(
    pattern: StencilPattern,
    header: tuple[str, ...],
    strategy: str,
    emit_sweep: Callable[[CodeWriter, int, Sweep], None],
    setup: tuple[str, ...] = (),
) -> GeneratedProgram:
    """The frame every 1-D stencil listing shares.

    Prologue (block bounds, ring neighbors, *setup* lines, padded local
    arrays), the time loop calling ``emit_sweep(w, index, sweep)`` — the
    caller's per-sweep communication shape — and the allgather epilogue.
    """
    w = CodeWriter()
    w.lines(*header)
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"m = int(env['{pattern.size_param}'])",
            "n = p.nprocs",
            "assert m % n == 0, 'stencil lowering needs N | m'",
            "cnt = m // n",
            "lo = p.rank * cnt",
            "hi = lo + cnt",
            "left = (p.rank - 1) % n",
            "right = (p.rank + 1) % n",
            *setup,
            "pads = {}",
        )
        for name in pattern.arrays:
            hl, hr = pattern.halo[name]
            w.lines(
                f"_g = np.asarray(env['{name}'], dtype=np.float64)",
                f"pads['{name}'] = np.zeros(cnt + {hl} + {hr})",
                f"pads['{name}'][{hl}:{hl} + cnt] = _g[lo:hi]",
            )
        steps = f"int(env['{pattern.time_param}'])" if pattern.time_param else "1"
        w.line(f"steps = {steps}")
        with w.block("for _step in range(steps):"):
            for si, sweep in enumerate(pattern.sweeps):
                emit_sweep(w, si, sweep)
        w.line("out = {}")
        for name in pattern.arrays:
            hl, _hr = pattern.halo[name]
            w.lines(
                f"blocks = yield from allgather(p, pads['{name}'][{hl}:{hl} + cnt], tuple(range(n)))",
                f"out['{name}'] = np.concatenate([np.atleast_1d(b) for b in blocks])",
            )
        w.line("return out")
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy=strategy, pattern=pattern
    )


def emit_stencil(pattern: StencilPattern) -> GeneratedProgram:
    """Emit the SPMD stencil program for a recognized pattern."""

    def blocking_sweep(w: CodeWriter, si: int, sweep: Sweep) -> None:
        w.line(f"# sweep {si + 1}: DO {sweep.var} = {sweep.lb}, {sweep.ub}")
        # Halo exchange (Shift) for the arrays this sweep reads.
        # Boundary wrap values are never consumed: the sweep bounds
        # keep edge iterations away from non-existent neighbors.
        for name in sorted({name for st in sweep.stmts for name, _ in st.offsets}):
            for direction, width in zip(("left", "right"), pattern.halo[name]):
                if width:
                    src, dest, tag, out, into = _halo_side(pattern, name, direction, si)
                    with w.block("if n > 1:"):
                        w.lines(
                            f"p.send({dest}, pads['{name}']{out}, tag={tag})",
                            f"pads['{name}']{into} = yield from p.recv({src}, tag={tag})",
                        )
        _emit_bounds(w, sweep, pattern)
        with w.block("if s1 > s0:"):
            _emit_stmts(w, sweep, pattern, "s0", "s1", "sweep")

    header = (
        "# generated: block-distributed stencil sweeps with neighbor halo",
        "# exchange (paper S1: 'dependent data only influence neighboring",
        "# data' -> component alignment + Shift communication).",
    )
    return _emit_sweep_program(pattern, header, "stencil", blocking_sweep)


def _count_ops(expr: Expr) -> int:
    """Arithmetic operations per element of a vectorized statement."""
    if isinstance(expr, BinOp):
        return 1 + _count_ops(expr.left) + _count_ops(expr.right)
    if isinstance(expr, UnaryOp):
        return (1 if expr.op == "-" else 0) + _count_ops(expr.operand)
    return 0


def _affine_to_py(aff: Affine, size_param: str) -> str:
    parts = [str(aff.const)]
    for var, coeff in sorted(aff.coeffs.items()):
        if var != size_param:
            raise CodegenError(f"stencil bounds may only use {size_param!r}, got {var!r}")
        parts.append(f"{coeff} * m")
    return " + ".join(parts)
