"""What a DSL program means: :func:`interpret` runs it.

The interpreter evaluates a :class:`~repro.lang.ast.Program` statement by
statement, in source order, on float64 NumPy arrays: every ``DO`` loop
takes its bounds once, on entry, and every assignment reads the values
the statements before it left.  It is the one sequential reference: a
generated SPMD program is right when it computes what :func:`interpret`
computes from the program's source.

Nothing is guessed.  A subscript outside its declared extent, a zero
divisor, an array of the wrong shape or a name without a value raises
:class:`~repro.errors.EvaluationError` (NumPy would wrap index 0 to the
last element, and ``x / 0.0`` would be ``inf``).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from repro.errors import EvaluationError
from repro.lang.ast import ArrayRef, BinOp, DoLoop, Num, Program, ScalarRef, UnaryOp

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "min": min, "max": max, "abs": abs, "ceiling": math.ceil, "floor": math.floor,
        "mod": math.fmod}  # Fortran MOD takes the sign of the dividend
_DIVIDES = (operator.truediv, math.fmod)


def interpret(program: Program, env: dict, arrays: dict | None = None, scalars: dict | None = None) -> dict:
    """Run *program* under the parameter binding *env*.

    *arrays* holds the initial value of declared arrays (copied as
    float64; an array it omits starts at zero), *scalars* the values of
    ``SCALAR`` names.  Returns the final value of every declared array and
    of every scalar that has one.
    """
    store = {}
    for name, decl in program.arrays.items():
        value = np.array((arrays or {}).get(name, np.zeros(decl.shape(env))), dtype=np.float64)
        if value.shape != decl.shape(env):
            raise EvaluationError(f"{decl} under {env} is {decl.shape(env)}, got shape {value.shape}")
        store[name] = value
    names = {**env, **(scalars or {})}
    _run(program.body, names, store)
    return store | {name: names[name] for name in program.scalars if name in names}


def _run(stmts: list, names: dict, store: dict) -> None:
    for stmt in stmts:
        if isinstance(stmt, DoLoop):
            for names[stmt.var] in stmt.iter_values(names):
                _run(stmt.body, names, store)
        elif isinstance(stmt.lhs, ArrayRef):
            store[stmt.lhs.name][_index(stmt.lhs, names, store)] = _eval(stmt.rhs, names, store)
        else:
            names[stmt.lhs.name] = _eval(stmt.rhs, names, store)


def _index(ref: ArrayRef, names: dict, store: dict) -> tuple[int, ...]:
    """*ref*'s zero-based element, checked against the declared extents."""
    index = tuple([sub.evaluate(names) - 1 for sub in ref.subscripts])
    shape = store[ref.name].shape
    for i, n in zip(index, shape):
        if not 0 <= i < n:
            raise EvaluationError(f"{ref} is element {tuple(i + 1 for i in index)}, outside {ref.name}{shape}")
    return index


def _eval(expr, names: dict, store: dict):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, ScalarRef):
        if expr.name not in names:
            raise EvaluationError(f"{expr.name!r} has no value")
        return names[expr.name]
    if isinstance(expr, ArrayRef):
        return float(store[expr.name][_index(expr, names, store)])
    if isinstance(expr, UnaryOp):
        value = _eval(expr.operand, names, store)
        return -value if expr.op == "-" else value
    # a BinOp, or a Call of one of the parser's intrinsics
    operands = (expr.left, expr.right) if isinstance(expr, BinOp) else expr.args
    args = [_eval(arg, names, store) for arg in operands]
    op = _OPS[expr.op if isinstance(expr, BinOp) else expr.name]
    if op in _DIVIDES and args[1] == 0:
        raise EvaluationError(f"{expr} divides by zero")
    return op(*args)
