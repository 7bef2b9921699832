"""Compile *your own* Do-loop program.

Run:  python examples/custom_program.py

The compiler keys on program structure, not names: this example writes a
Jacobi-shaped solver with completely different identifiers, lets the
recognizer find the pattern, prints the generated SPMD code, and runs it.
Because the plan cache is content-addressed over the *canonicalized* IR,
the renamed program even shares a cache entry with the stock Jacobi.  It
then demonstrates the diagnostics you get for an unsupported program.
"""

from __future__ import annotations

import numpy as np

from repro import MachineModel, Session, compile_program, jacobi_program
from repro.errors import CodegenError
from repro.kernels import make_spd_system
from repro.lang.interp import interpret

SOURCE = """\
PROGRAM heatstep
PARAM size, steps
ARRAY Stiff(size, size), Resid(size), Load(size), Temp(size)
DO t = 1, steps
  DO row = 1, size
    Resid(row) = 0.0
    DO col = 1, size
      Resid(row) = Resid(row) + Stiff(row, col) * Temp(col)
    END DO
  END DO
  DO row = 1, size
    Temp(row) = Temp(row) + (Load(row) - Resid(row)) / Stiff(row, row)
  END DO
END DO
END
"""

UNSUPPORTED = """\
PROGRAM fancy
PARAM n
ARRAY A(n, n)
DO i = 1, n
  DO j = 1, n
    A(i, j) = A(j, i)
  END DO
END DO
END
"""


def main() -> None:
    plan = compile_program(SOURCE)
    print(f"recognized '{plan.program.name}' as {plan.strategy}; generated code:\n")
    print(plan.source)

    m, n, iters = 32, 4, 25
    A, b, x_true = make_spd_system(m, seed=8)
    inputs = {"Stiff": A, "Load": b, "X0": np.zeros(m), "iterations": iters}
    res = plan.run(n, {"size": m, "steps": iters},
                   model=MachineModel(tf=1, tc=10), inputs=inputs)
    # The reference is the source program itself, run by the interpreter.
    ref = interpret(plan.program, {"size": m, "steps": iters}, {"Stiff": A, "Load": b})["Temp"]
    print(f"makespan {res.makespan:,.0f}; matches the interpreted source: "
          f"{np.allclose(res.value(0), ref)}")

    # heatstep is an alpha-twin of the stock Jacobi: same canonical IR,
    # same digest, one cache entry between them.
    session = Session()
    first = session.compile(jacobi_program())
    twin = session.compile(SOURCE)
    print(f"\nalpha-twin cache: digests equal = {first.digest == twin.digest}, "
          f"served from cache = {twin.cached}")
    print(f"name translation: {twin.rename}")

    print("\nan unsupported program fails loudly:")
    try:
        compile_program(UNSUPPORTED)
    except CodegenError as exc:
        print(f"  CodegenError: {exc}")


if __name__ == "__main__":
    main()
