"""Generic lowering of 2-D data-parallel (stencil) sweeps.

Companion to :mod:`repro.codegen.stencil` for 2-D arrays: recognizes
(optionally time-stepped) perfect double loops::

    DO i = lo_i, hi_i
      DO j = lo_j, hi_j
        A(i, j) = f( B(i + ci, j + cj), ..., scalars )

where every reference has unit coefficients and constant offsets, and the
dependence analyzer confirms the nest carries nothing at either loop
level.  Lowering follows the §3 alignment default for row-major sweeps:
**row blocks** on a linear processor array, so only *row* halos travel
(column offsets stay inside the locally complete rows).  Each sweep
exchanges ``max(-ci)`` upper and ``max(+ci)`` lower halo rows with the
linear-array neighbors, then computes vectorized on the interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.codegen.emitter import CodeWriter
from repro.codegen.spmd import GeneratedProgram
from repro.codegen.stencil import (
    _affine_to_py,
    _compile_tree,
    _count_ops,
    _offset_of,
    _scan_rhs,
    _time_stepped_sweeps,
)
from repro.dependence.analysis import find_dependences
from repro.lang.affine import Affine
from repro.lang.ast import ArrayRef, Assign, DoLoop, Expr, Program


@dataclass(frozen=True)
class Sweep2DStmt:
    lhs_array: str
    rhs: Expr
    offsets: tuple[tuple[str, int, int], ...]  # (array, row off, col off)


@dataclass(frozen=True)
class Sweep2D:
    ivar: str
    jvar: str
    i_lb: Affine
    i_ub: Affine
    j_lb: Affine
    j_ub: Affine
    stmts: tuple[Sweep2DStmt, ...]


@dataclass(frozen=True)
class Stencil2DPattern:
    kind: ClassVar[str] = "stencil-2d"
    size_param: str
    time_param: str | None
    arrays: tuple[str, ...]
    sweeps: tuple[Sweep2D, ...]

    @property
    def row_halo(self) -> dict[str, tuple[int, int]]:
        """(upper, lower) halo rows per array over all sweeps."""
        halo = {name: (0, 0) for name in self.arrays}
        for sweep in self.sweeps:
            for stmt in sweep.stmts:
                for name, ci, _cj in stmt.offsets:
                    up, down = halo[name]
                    halo[name] = (max(up, -ci), max(down, ci))
        return halo

    @property
    def col_halo(self) -> dict[str, tuple[int, int]]:
        """(left, right) column overhang per array (local, no comm)."""
        halo = {name: (0, 0) for name in self.arrays}
        for sweep in self.sweeps:
            for stmt in sweep.stmts:
                for name, _ci, cj in stmt.offsets:
                    left, right = halo[name]
                    halo[name] = (max(left, -cj), max(right, cj))
        return halo


def _extract_stmt(stmt: Assign, ivar: str, jvar: str, program: Program) -> Sweep2DStmt | None:
    lhs = stmt.lhs
    if not isinstance(lhs, ArrayRef) or lhs.rank != 2:
        return None
    if _offset_of(lhs.subscripts[0], ivar) != 0 or _offset_of(lhs.subscripts[1], jvar) != 0:
        return None
    offsets: list[tuple[str, int, int]] = []

    def on_ref(ref: ArrayRef) -> bool:
        if ref.rank != 2:
            return False
        ci = _offset_of(ref.subscripts[0], ivar)
        cj = _offset_of(ref.subscripts[1], jvar)
        if ci is None or cj is None:
            return False
        offsets.append((ref.name, ci, cj))
        return True

    if not _scan_rhs(stmt.rhs, program, on_ref):
        return None
    return Sweep2DStmt(lhs_array=lhs.name, rhs=stmt.rhs, offsets=tuple(offsets))


def _extract_sweep(loop: DoLoop, program: Program) -> Sweep2D | None:
    if len(loop.body) != 1 or not isinstance(loop.body[0], DoLoop):
        return None
    inner = loop.body[0]
    if loop.var in inner.lb.variables() or loop.var in inner.ub.variables():
        return None
    stmts: list[Sweep2DStmt] = []
    for stmt in inner.body:
        if not isinstance(stmt, Assign):
            return None
        ext = _extract_stmt(stmt, loop.var, inner.var, program)
        if ext is None:
            return None
        stmts.append(ext)
    if not stmts:
        return None
    # Full parallelism: nothing carried at either sweep level.
    for dep in find_dependences([loop]):
        if dep.carried_level() in (0, 1):
            return None
    return Sweep2D(
        ivar=loop.var,
        jvar=inner.var,
        i_lb=loop.lb,
        i_ub=loop.ub,
        j_lb=inner.lb,
        j_ub=inner.ub,
        stmts=tuple(stmts),
    )


def match_stencil_2d(program: Program) -> Stencil2DPattern | None:
    """Recognize a (time-stepped) sequence of 2-D parallel sweeps."""
    arrays = tuple(sorted(program.arrays))
    if not arrays or any(program.arrays[a].rank != 2 for a in arrays):
        return None
    size_param = None
    for decl in program.arrays.values():
        for ext in decl.extents:
            if len(ext.coeffs) != 1 or ext.const != 0:
                return None
            (var, coeff), = ext.coeffs.items()
            if coeff != 1:
                return None
            size_param = size_param or var
            if var != size_param:
                return None
    if size_param is None:
        return None

    found = _time_stepped_sweeps(program, size_param, _extract_sweep)
    if found is None:
        return None
    time_param, sweeps = found
    return Stencil2DPattern(
        size_param=size_param,
        time_param=time_param,
        arrays=arrays,
        sweeps=sweeps,
    )


def _compile_expr(expr: Expr, sweep: Sweep2D, pattern: Stencil2DPattern) -> str:
    halo = pattern.row_halo

    def ref(e: ArrayRef) -> str:
        ci = _offset_of(e.subscripts[0], sweep.ivar)
        cj = _offset_of(e.subscripts[1], sweep.jvar)
        assert ci is not None and cj is not None
        r = halo[e.name][0] + ci
        return f"pads['{e.name}'][{r} + s0 : {r} + s1, j0 + {cj} : j1 + {cj}]"

    return _compile_tree(expr, ref)


def emit_stencil_2d(pattern: Stencil2DPattern) -> GeneratedProgram:
    """Emit the SPMD 2-D stencil program (row blocks + halo rows)."""
    w = CodeWriter()
    w.lines(
        "# generated: row-block 2-D stencil sweeps; halo *rows* exchanged",
        "# with linear-array neighbors (column offsets are local because",
        "# rows are stored whole — the S3 alignment default).",
    )
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"m = int(env['{pattern.size_param}'])",
            "n = p.nprocs",
            "assert m % n == 0, '2-D stencil lowering needs N | m'",
            "cnt = m // n",
            "lo = p.rank * cnt",
            "hi = lo + cnt",
            "up = (p.rank - 1) % n",
            "down = (p.rank + 1) % n",
            "pads = {}",
        )
        for name in pattern.arrays:
            hu, hd = pattern.row_halo[name]
            w.lines(
                f"_g = np.asarray(env['{name}'], dtype=np.float64)",
                f"pads['{name}'] = np.zeros((cnt + {hu} + {hd}, m))",
                f"pads['{name}'][{hu}:{hu} + cnt, :] = _g[lo:hi, :]",
            )
        steps = f"int(env['{pattern.time_param}'])" if pattern.time_param else "1"
        w.line(f"steps = {steps}")
        with w.block("for _step in range(steps):"):
            for si, sweep in enumerate(pattern.sweeps):
                w.line(
                    f"# sweep {si + 1}: DO {sweep.ivar} = {sweep.i_lb}, {sweep.i_ub}"
                    f" / DO {sweep.jvar} = {sweep.j_lb}, {sweep.j_ub}"
                )
                read = sorted({name for st in sweep.stmts for name, _, _ in st.offsets})
                for name in read:
                    hu, hd = pattern.row_halo[name]
                    if hu:
                        with w.block("if n > 1:"):
                            w.lines(
                                f"p.send(down, pads['{name}'][cnt:{hu} + cnt, :].copy(), tag={70 + si})",
                                f"pads['{name}'][:{hu}, :] = yield from p.recv(up, tag={70 + si})",
                            )
                    if hd:
                        with w.block("if n > 1:"):
                            w.lines(
                                f"p.send(up, pads['{name}'][{hu}:{hu} + {hd}, :].copy(), tag={170 + si})",
                                f"pads['{name}'][{hu} + cnt:, :] = yield from p.recv(down, tag={170 + si})",
                            )
                w.lines(
                    f"g_lo = max({_affine_to_py(sweep.i_lb, pattern.size_param)}, lo + 1)",
                    f"g_hi = min({_affine_to_py(sweep.i_ub, pattern.size_param)}, hi)",
                    "s0 = g_lo - 1 - lo",
                    "s1 = g_hi - lo",
                    f"j0 = {_affine_to_py(sweep.j_lb, pattern.size_param)} - 1",
                    f"j1 = {_affine_to_py(sweep.j_ub, pattern.size_param)}",
                )
                with w.block("if s1 > s0 and j1 > j0:"):
                    for st in sweep.stmts:
                        expr = _compile_expr(st.rhs, sweep, pattern)
                        flops = _count_ops(st.rhs)
                        hu = pattern.row_halo[st.lhs_array][0]
                        w.line(
                            f"pads['{st.lhs_array}'][{hu} + s0 : {hu} + s1, j0:j1] = {expr}"
                        )
                        if flops:
                            w.line(
                                f"p.compute({flops} * (s1 - s0) * (j1 - j0), label='sweep')"
                            )
        w.line("out = {}")
        for name in pattern.arrays:
            hu, _hd = pattern.row_halo[name]
            w.lines(
                f"blocks = yield from allgather(p, pads['{name}'][{hu}:{hu} + cnt, :].copy(), tuple(range(n)))",
                f"out['{name}'] = np.vstack(blocks)",
            )
        w.line("return out")
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy="stencil-2d", pattern=pattern
    )
