"""SPMD program emission (paper Figs 6 and 8).

:func:`generate_spmd` recognizes the input program (the first row of
:data:`repro.codegen.families.FAMILIES` that matches), chooses one of the
row's strategies and emits a runnable Python SPMD generator function:

* ``jacobi`` programs — block row distribution per the §4 DP result
  (Table 3 layout): local GEMV + update + allgather of X;
* ``sor`` programs — the ring software pipeline of Fig 5/Fig 6, derived
  from the §5 analysis (column blocks per Table 4, V values circulating);
* ``gauss`` programs — the cyclic-distribution pipeline of Fig 8,
  justified by the §6 token analysis: in a program equal to the §6
  listing every communicated token is local or neighbor-pipelinable
  (:func:`repro.pipeline.mapping.choose_mapping` of its first nest finds
  0 broadcast tokens; ``tests/test_tokens_mapping.py`` pins that), so
  Shift-based code is the default and multicast code is on request.

The emitted source uses only the documented runtime surface
(:mod:`repro.codegen.runtime_api`); :func:`load_generated` compiles it
and returns the entry callable for :func:`repro.machine.run_spmd`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.emitter import CodeWriter
from repro.codegen.patterns import GaussPattern, IterativeSolvePattern, MatmulPattern, body_of
from repro.codegen.runtime_api import runtime_namespace
from repro.errors import CodegenError
from repro.lang.ast import Program
from repro.util.spans import spanned


@dataclass(frozen=True)
class GeneratedProgram:
    """Emitted SPMD source plus metadata."""

    source: str
    entry: str
    strategy: str
    pattern: object

    def env_keys(self) -> tuple[str, ...]:
        from repro.codegen.families import family_of

        return family_of(self).env_keys(self.pattern)


@spanned("codegen/emit")
def generate_spmd(program: Program, strategy: str | None = None) -> GeneratedProgram:
    """Recognize *program* and emit SPMD source for it.

    *strategy* optionally forces one of the recognized family's
    admissible strategies (:data:`repro.codegen.families.FAMILIES`); by
    default the family decides.
    """
    from repro.codegen.families import FAMILIES  # its rows hold this module's emitters

    body = body_of(program)
    for family in FAMILIES.values():
        pattern = family.match(program, body)
        if pattern is not None:
            return family.emit(pattern, strategy)
    raise CodegenError(
        f"program {program.name!r} does not match any generatable pattern"
    )


def load_generated(gen: GeneratedProgram):
    """Compile generated source; returns the SPMD entry callable."""
    namespace = runtime_namespace()
    code = compile(gen.source, f"<generated:{gen.entry}>", "exec")
    exec(code, namespace)
    return namespace[gen.entry]


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _emit_jacobi(pat: IterativeSolvePattern) -> GeneratedProgram:
    A, B, X, V = pat.A, pat.B, pat.X, pat.V
    w = CodeWriter()
    w.lines(
        f"# generated: Jacobi solver '{A} x = {B}' under the paper's S4 DP scheme",
        f"# layout: row blocks of {A} plus matching elements of {V}/{B}/{X}",
        "# on a linear processor array (paper Table 3); X is re-replicated",
        "# each iteration by ManyToManyMulticast (the loop-carried cost m*tc).",
    )
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"A = np.asarray(env['{A}'], dtype=np.float64)",
            f"b = np.asarray(env['{B}'], dtype=np.float64)",
            "x = np.array(env['X0'], dtype=np.float64)",
            "iterations = env['iterations']",
            "m = len(b)",
            "n = p.nprocs",
            "size = -(-m // n)",
            "lo = min(p.rank * size, m)",
            "hi = min(lo + size, m)",
            "A_loc = np.ascontiguousarray(A[lo:hi, :])",
            "b_loc = b[lo:hi].copy()",
            "diag_loc = np.diag(A)[lo:hi].copy()",
            "group = tuple(range(n))",
            "rows = hi - lo",
        )
        with w.block("for _ in range(iterations):"):
            w.lines(
                "v_loc = A_loc @ x",
                "p.compute(2 * rows * m, label='gemv')",
                "x_loc = x[lo:hi] + (b_loc - v_loc) / diag_loc",
                "p.compute(3 * rows, label='update')",
                "blocks = yield from allgather(p, x_loc, group)",
                "x = np.concatenate([np.atleast_1d(blk) for blk in blocks])",
            )
        w.line("return x")
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy="data-parallel", pattern=pat
    )


def _emit_sor(pat: IterativeSolvePattern) -> GeneratedProgram:
    A, B, X, V = pat.A, pat.B, pat.X, pat.V
    omega_load = (
        f"omega = float(env['{pat.omega}'])" if pat.omega else "omega = 1.0"
    )
    w = CodeWriter()
    w.lines(
        f"# generated: pipelined SOR sweep of '{A} x = {B}' (paper Fig 6)",
        f"# layout: column blocks of {A} plus matching elements of {B}/{X}",
        f"# (paper Table 4); partial sums of {V} circulate the ring.",
    )
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"A = np.asarray(env['{A}'], dtype=np.float64)",
            f"b = np.asarray(env['{B}'], dtype=np.float64)",
            "x0 = np.array(env['X0'], dtype=np.float64)",
            "iterations = env['iterations']",
            omega_load,
            "m = len(b)",
            "n = p.nprocs",
            "assert m % n == 0, 'pipelined SOR needs N | m'",
            "block = m // n",
            "me = p.rank",
            "before = me * block",
            "right = (me + 1) % n",
            "left = (me - 1) % n",
            "A_loc = np.ascontiguousarray(A[:, before:before + block])",
            "b_loc = b[before:before + block].copy()",
            "diag_loc = np.diag(A)[before:before + block].copy()",
            "x_loc = x0[before:before + block].copy()",
        )
        with w.block("for _ in range(iterations):"):
            with w.block("if n == 1:"):
                with w.block("for ii in range(block):"):
                    w.lines(
                        "v = float(A_loc[ii, :] @ x_loc)",
                        "p.compute(2 * block + 4, label=f'row {ii + 1}')",
                        "x_loc[ii] += omega * (b_loc[ii] - v) / diag_loc[ii]",
                    )
                w.line("continue")
            w.line("# Fig 6 lines 7-15: rows of earlier processors (old X here)")
            with w.block("for i in range(before):"):
                w.lines(
                    "temp = float(A_loc[i, :] @ x_loc)",
                    "p.compute(2 * block, label=f'row {i + 1} partial')",
                    "v = yield from p.recv(left, tag=60)",
                    "p.send(right, v + temp, tag=60)",
                )
            w.line("# Fig 6 lines 16-23: start my rows with columns j >= i")
            with w.block("for ii in range(block):"):
                w.lines(
                    "v_start = float(A_loc[before + ii, ii:] @ x_loc[ii:])",
                    "p.compute(2 * (block - ii), label=f'row {before + ii + 1} start')",
                    "p.send(right, v_start, tag=60)",
                )
            w.line("# Fig 6 lines 24-34: my rows return; add updated prefixes")
            with w.block("for ii in range(block):"):
                w.lines(
                    "temp = float(A_loc[before + ii, :ii] @ x_loc[:ii])",
                    "p.compute(2 * ii, label=f'row {before + ii + 1} finish')",
                    "v = yield from p.recv(left, tag=60)",
                    "x_loc[ii] += omega * (b_loc[ii] - (v + temp)) / diag_loc[ii]",
                    "p.compute(4, label=f'X({before + ii + 1})')",
                )
            w.line("# Fig 6 lines 35-43: rows of later processors (new X here)")
            with w.block("for i in range(before + block, m):"):
                w.lines(
                    "temp = float(A_loc[i, :] @ x_loc)",
                    "p.compute(2 * block, label=f'row {i + 1} partial')",
                    "v = yield from p.recv(left, tag=60)",
                    "p.send(right, v + temp, tag=60)",
                )
        w.lines(
            "group = tuple(range(n))",
            "blocks = yield from allgather(p, x_loc, group)",
            "return np.concatenate([np.atleast_1d(blk) for blk in blocks])",
        )
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy="ring-pipeline", pattern=pat
    )


def _emit_cannon(pat: MatmulPattern) -> GeneratedProgram:
    """Cannon's algorithm on the rotated distributions of §2.1/Fig 1.

    The initial skew is expressed purely as the data layout
    (``B`` block (p1, p1+p2), ``C`` block (p1+p2, p2)), so the generated
    program performs only the q multiply-shift rounds.  Rank 0 gathers and
    assembles the result.
    """
    B, C, A = pat.left, pat.right, pat.out
    w = CodeWriter()
    w.lines(
        f"# generated: Cannon's algorithm for '{A} = {B} x {C}' on a q x q torus",
        f"# layout: rotated distributions (paper Fig 1 b/c) — {B} block",
        f"# (p1, (p1+p2) mod q), {C} block ((p1+p2) mod q, p2); no skew phase.",
    )
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"B = np.asarray(env['{B}'], dtype=np.float64)",
            f"C = np.asarray(env['{C}'], dtype=np.float64)",
            "n = B.shape[0]",
            "q = int(round(p.nprocs ** 0.5))",
            "assert q * q == p.nprocs, 'Cannon needs a square processor grid'",
            "assert n % q == 0, 'Cannon needs q | n'",
            "nb = n // q",
            "p1, p2 = divmod(p.rank, q)",
            "r = (p1 + p2) % q",
            "B_loc = np.ascontiguousarray(B[p1 * nb:(p1 + 1) * nb, r * nb:(r + 1) * nb])",
            "C_loc = np.ascontiguousarray(C[r * nb:(r + 1) * nb, p2 * nb:(p2 + 1) * nb])",
            "A_loc = np.zeros((nb, nb))",
            "row_group = tuple(p1 * q + c for c in range(q))",
            "col_group = tuple(rr * q + p2 for rr in range(q))",
        )
        with w.block("for step in range(q):"):
            w.lines(
                "A_loc += B_loc @ C_loc",
                "p.compute(2 * nb * nb * nb, label=f'block gemm step {step + 1}')",
            )
            with w.block("if q > 1 and step < q - 1:"):
                w.lines(
                    "B_loc = yield from shift(p, B_loc, row_group, delta=-1, tag=80)",
                    "C_loc = yield from shift(p, C_loc, col_group, delta=-1, tag=81)",
                )
        w.line("blocks = yield from gather(p, A_loc, root=0, group=tuple(range(p.nprocs)))")
        with w.block("if p.rank != 0:"):
            w.line("return None")
        w.lines(
            "rows = [np.hstack(blocks[r0 * q:(r0 + 1) * q]) for r0 in range(q)]",
            "return np.vstack(rows)",
        )
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy="cannon", pattern=pat
    )


def _emit_gauss(pat: GaussPattern, strategy: str) -> GeneratedProgram:
    A, B = pat.A, pat.B
    pipelined = strategy == "cyclic-pipeline"
    w = CodeWriter()
    w.lines(
        f"# generated: Gauss elimination of '{A} x = {B}' (paper Fig 8)"
        if pipelined
        else f"# generated: Gauss elimination of '{A} x = {B}' (naive multicast)",
        f"# layout: cyclic rows f(i) = (i-1) mod N of {A}/{pat.L}, cyclic",
        f"# elements of {B}/{pat.V}/{pat.X} (paper S6).",
    )
    with w.block("def spmd_main(p, env):"):
        w.lines(
            f"A = np.asarray(env['{A}'], dtype=np.float64)",
            f"b = np.asarray(env['{B}'], dtype=np.float64)",
            "m = len(b)",
            "n = p.nprocs",
            "mine = np.arange(p.rank, m, n)",
            "A_loc = np.ascontiguousarray(A[mine, :]).astype(np.float64)",
            "b_loc = b[mine].astype(np.float64).copy()",
            "right = (p.rank + 1) % n",
            "left = (p.rank - 1) % n",
            "group = tuple(range(n))",
        )
        w.line("# --- triangularization (paper lines 2-8) ---")
        with w.block("for k in range(m):"):
            w.line("owner = k % n")
            if pipelined:
                with w.block("if n == 1:"):
                    w.lines(
                        "pivot_row = A_loc[k // n, k:].copy()",
                        "pivot_b = float(b_loc[k // n])",
                    )
                with w.block("elif p.rank == owner:"):
                    w.lines(
                        "pivot_row = A_loc[k // n, k:].copy()",
                        "pivot_b = float(b_loc[k // n])",
                        "p.send(right, (pivot_row, pivot_b), tag=70)",
                    )
                with w.block("else:"):
                    w.line("pivot_row, pivot_b = yield from p.recv(left, tag=70)")
                    with w.block("if right != owner:"):
                        w.line("p.send(right, (pivot_row, pivot_b), tag=70)")
            else:
                with w.block("if p.rank == owner:"):
                    w.lines(
                        "packet = (A_loc[k // n, k:].copy(), float(b_loc[k // n]))",
                        "packet = yield from bcast(p, packet, root=owner, group=group)",
                    )
                with w.block("else:"):
                    w.line("packet = yield from bcast(p, None, root=owner, group=group)")
                w.line("pivot_row, pivot_b = packet")
            w.lines(
                "pivot = pivot_row[0]",
                "below = mine > k",
            )
            with w.block("if below.any():"):
                w.lines(
                    "rows = np.nonzero(below)[0]",
                    "ell = A_loc[rows, k] / pivot",
                    "b_loc[rows] -= ell * pivot_b",
                    "A_loc[np.ix_(rows, range(k, m))] -= np.outer(ell, pivot_row)",
                    "p.compute(len(rows) * (2 * (m - k) + 3), label=f'elim k={k + 1}')",
                )
        w.line("# --- back substitution (paper lines 9-17) ---")
        w.lines("x = np.zeros(m)", "v_loc = np.zeros(len(mine))")
        with w.block("for j in range(m - 1, -1, -1):"):
            w.line("owner = j % n")
            if pipelined:
                with w.block("if n == 1:"):
                    w.lines(
                        "xj = float((b_loc[j // n] - v_loc[j // n]) / A_loc[j // n, j])",
                        "p.compute(2, label=f'X({j + 1})')",
                    )
                with w.block("elif p.rank == owner:"):
                    w.lines(
                        "xj = float((b_loc[j // n] - v_loc[j // n]) / A_loc[j // n, j])",
                        "p.compute(2, label=f'X({j + 1})')",
                        "p.send(left, xj, tag=71)",
                    )
                with w.block("else:"):
                    w.line("xj = yield from p.recv(right, tag=71)")
                    with w.block("if left != owner:"):
                        w.line("p.send(left, xj, tag=71)")
            else:
                with w.block("if p.rank == owner:"):
                    w.lines(
                        "xj = float((b_loc[j // n] - v_loc[j // n]) / A_loc[j // n, j])",
                        "p.compute(2, label=f'X({j + 1})')",
                        "xj = yield from bcast(p, xj, root=owner, group=group)",
                    )
                with w.block("else:"):
                    w.line("xj = yield from bcast(p, None, root=owner, group=group)")
            w.lines("x[j] = xj", "above = mine < j")
            with w.block("if above.any():"):
                w.lines(
                    "rows = np.nonzero(above)[0]",
                    "v_loc[rows] += A_loc[rows, j] * xj",
                    "p.compute(2 * len(rows), label=f'V update j={j + 1}')",
                )
        w.line("return x")
    return GeneratedProgram(
        source=w.source(), entry="spmd_main", strategy=strategy, pattern=pat
    )
