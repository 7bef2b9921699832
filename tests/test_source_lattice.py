"""Every generatable family x strategy against its interpreted source.

A cell is (row of ``FAMILIES``, admissible strategy, m in 1..16, N in
1..8), run by ``Plan.run`` on the row's topology.  Each cell either
computes what :func:`repro.lang.interp.interpret` computes from the
source program, or raises ``CodegenError`` from ``Plan.run``'s
precondition before any rank runs; it never returns other values and
never raises a bare ``AssertionError``.  ``ADMITS`` states, apart from
the families' own column, where each row must run.

Tier-1 runs a fixed seeded sample of the cells; ``REPRO_LATTICE=full``
runs all of them (a CI step does).
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest

from repro.codegen.families import FAMILIES
from repro.codegen.spmd import generate_spmd
from repro.errors import CodegenError
from repro.kernels.linalg import make_spd_system
from repro.lang.interp import interpret
from repro.lang.parser import parse_program
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.machine.model import MachineModel
from repro.service.plan import Plan

MODEL = MachineModel(tf=1, tc=10)

#: Finding 7's sweep, time-stepped: a halo of 2 each way.
WIDE = """\
PROGRAM w
PARAM m, steps
ARRAY U(m), W(m)
DO t = 1, steps
  DO i = 3, m - 2
    U(i) = W(i - 2) + W(i + 2)
  END DO
  DO i = 3, m - 2
    W(i) = U(i)
  END DO
END DO
END
"""

#: Rows reach 2 up, columns 3 to the right: a row halo of (2, 0).
ANISOTROPIC = """\
PROGRAM a
PARAM m
ARRAY U(m, m), W(m, m)
DO i = 3, m
  DO j = 1, m - 3
    U(i, j) = W(i - 2, j + 3)
  END DO
END DO
END
"""

#: row -> its source program (both stencils reach two rows back: halo 2)
SOURCES = {"jacobi": JACOBI_SOURCE, "sor": SOR_SOURCE, "matmul": MATMUL_SOURCE,
           "gauss": GAUSS_SOURCE, "stencil": WIDE, "stencil-2d": ANISOTROPIC}
SOLVERS = ("jacobi", "sor", "gauss")

#: row -> (m, N) -> whether its emitted program is right there (for the
#: stencils: for a halo of at most 2)
ADMITS = {
    "jacobi": lambda m, n: True,  # ceil(m / N)-row blocks cover any m
    "sor": lambda m, n: m % n == 0,
    "matmul": lambda m, n: isqrt(n) ** 2 == n and m % isqrt(n) == 0,
    "gauss": lambda m, n: True,  # cyclic rows
    "stencil": lambda m, n: m % n == 0 and (n == 1 or m // n >= 2),
    "stencil-2d": lambda m, n: m % n == 0 and (n == 1 or m // n >= 2),
}

#: Rows whose emitted program sums in another order than the source, so
#: they match to 1e-12; every other row computes each element with the
#: source's operations in the source's order and must be bit-equal.
REORDERS = {
    "jacobi": "each row of A @ X is one BLAS dot product",
    "sor": "each row's dot product is split into per-block partial sums around the ring",
    "matmul": "Cannon sums each block product in BLAS order and the blocks in a rotated order",
}

CELLS = [
    (row, strategy, m, n)
    for row, family in FAMILIES.items()
    for strategy in family.strategies
    for m in range(1, 17)
    for n in range(1, 9)
]
SAMPLE = CELLS if os.environ.get("REPRO_LATTICE") == "full" else random.Random(41).sample(CELLS, 120)


@lru_cache(maxsize=None)
def _cell(row, source, m):
    """``(env, scalars, arrays, interpreted)`` of a size-*m* cell: every
    parameter m but the step counts (2), every scalar 1.1, random arrays,
    and for the solvers a diagonally dominant ``A x = B`` from ``X = 0``."""
    program = parse_program(source)
    env = {p: 2 if p in ("maxiter", "steps") else m for p in program.params}
    rng = np.random.default_rng(m)
    arrays = {name: rng.random(decl.shape(env)) for name, decl in program.arrays.items()}
    if row in SOLVERS:
        arrays["A"], arrays["B"], _ = make_spd_system(m, seed=m)
        arrays["X"] = np.zeros(m)
    scalars = {name: 1.1 for name in program.scalars}
    return env, scalars, arrays, interpret(program, env, arrays, scalars)


@lru_cache(maxsize=None)
def _plan(source, strategy):
    program = parse_program(source)
    return Plan(program, generate_spmd(program, strategy))


def check_cell(row, strategy, m, n, source=None):
    """Run one cell (of *row*'s own source, or *source*) through
    ``Plan.run`` and hold it to the interpreted source."""
    source = source or SOURCES[row]
    plan = _plan(source, strategy)
    assert plan.generated.pattern.kind == row
    env, scalars, arrays, expected = _cell(row, source, m)
    inputs = {**env, **scalars, **arrays, "X0": arrays.get("X"), "iterations": 2}
    if not ADMITS[row](m, n):
        with pytest.raises(CodegenError, match=f"strategy '{strategy}' is right only when"):
            plan.run(n, env, inputs=inputs, model=MODEL)
        return
    values = [v for v in plan.run(n, env, inputs=inputs, model=MODEL).values if v is not None]
    assert values
    for value in values:  # a solver returns X, Cannon A, a stencil every array
        for name, got in (value if isinstance(value, dict) else {"A" if row == "matmul" else "X": value}).items():
            if row in REORDERS:
                np.testing.assert_allclose(got, expected[name], rtol=0, atol=1e-12)
            else:
                np.testing.assert_array_equal(got, expected[name])


def solution(source: str, A, b, iterations=None, omega=None) -> np.ndarray:
    """X of the solver listing *source* run on ``A x = b`` from ``X = 0``:
    the sequential reference of the solver tests (memoised: they ask for
    the same few answers many times)."""
    return _solution(source, A.tobytes(), b.tobytes(), len(b), iterations, omega)


@lru_cache(maxsize=None)
def _solution(source, A, b, m, iterations, omega):
    env = {"m": m} if iterations is None else {"m": m, "maxiter": iterations}
    arrays = {"A": np.frombuffer(A).reshape(m, m), "B": np.frombuffer(b)}
    return interpret(parse_program(source), env, arrays, {} if omega is None else {"omega": omega})["X"]


def test_every_row_has_a_source():
    assert set(SOURCES) == set(ADMITS) == set(FAMILIES)
    assert set(REORDERS) < set(FAMILIES)


@pytest.mark.parametrize("row, strategy, m, n", SAMPLE, ids=str)
def test_cell_equals_the_interpreted_source(row, strategy, m, n):
    check_cell(row, strategy, m, n)
