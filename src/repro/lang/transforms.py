"""Classic loop transformations (paper §7's closing remarks).

The paper's conclusion names the standard restructuring arsenal —
"loop interchanging, loop distribution, data blocking (strip mining)" —
as the techniques that improve parallelism extraction.  This module
implements them over the IR with dependence-based legality checks:

* :func:`interchange` — swap a perfectly nested loop pair; legal iff no
  dependence has direction (<, >) on the pair (the classic condition);
* :func:`distribute` — loop fission: split a loop's body into one loop
  per statement group; legal iff no loop-carried dependence points from
  a later group back to an earlier one (no cycle across the split);
* :func:`strip_mine` — blocking of a constant-bound loop into a strip
  loop and an element loop; always legal.
* :func:`specialize` — substitute parameter values into loop bounds,
  producing constant-bound loops (strip mining's precondition).

All transformations return *new* IR (inputs are never mutated) and raise
:class:`~repro.errors.DependenceError` when illegal.
"""

from __future__ import annotations

import copy

from repro.dependence.analysis import find_dependences
from repro.errors import DependenceError
from repro.lang.affine import Affine
from repro.lang.ast import Assign, DoLoop, Stmt


def _clone(stmt: Stmt) -> Stmt:
    return copy.deepcopy(stmt)


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------


def can_interchange(outer: DoLoop) -> bool:
    """Is swapping *outer* with its single nested loop legal?

    Requires a perfect 2-deep prefix (outer's body is exactly one loop).
    Interchange is illegal when some dependence has distance/direction
    ``(<, >)`` on the pair: it would be reversed to the invalid ``(>, <)``.
    """
    if len(outer.body) != 1 or not isinstance(outer.body[0], DoLoop):
        return False
    inner = outer.body[0]
    if outer.var in inner.lb.variables() or outer.var in inner.ub.variables():
        return False  # triangular bounds: interchange changes the domain
    for dep in find_dependences([outer]):
        dirs = dep.distance.directions()
        if len(dirs) >= 2:
            d_outer, d_inner = dirs[0], dirs[1]
            if d_outer in ("<", "*") and d_inner in (">", "*"):
                if d_outer == "<" and d_inner == ">":
                    return False
                # Unknown entries: conservative only when both unknown and
                # the references are distinct array positions.
                if "*" in (d_outer, d_inner) and dep.array and dep.kind != "output":
                    if d_outer == "*" and d_inner == "*":
                        continue  # same-position repeats commute
                    if (d_outer, d_inner) == ("<", "*") or (d_outer, d_inner) == ("*", ">"):
                        return False
    return True


def interchange(outer: DoLoop) -> DoLoop:
    """Swap a perfect loop pair, returning the new outer loop."""
    if not can_interchange(outer):
        raise DependenceError(
            f"interchange of loops {outer.var!r} and inner is not legal"
        )
    inner = outer.body[0]
    assert isinstance(inner, DoLoop)
    new_inner = DoLoop(
        var=outer.var,
        lb=outer.lb,
        ub=outer.ub,
        step=outer.step,
        body=[_clone(s) for s in inner.body],
        line=outer.line,
    )
    return DoLoop(
        var=inner.var,
        lb=inner.lb,
        ub=inner.ub,
        step=inner.step,
        body=[new_inner],
        line=inner.line,
    )


# ---------------------------------------------------------------------------
# loop distribution (fission)
# ---------------------------------------------------------------------------


def can_distribute(loop: DoLoop) -> bool:
    """Is splitting *loop* into one loop per body statement legal?

    Fission is illegal when a dependence carried by *loop* flows from a
    textually later statement to an earlier one (splitting would execute
    every instance of the earlier statement before any instance of the
    later, reversing the dependence).
    """
    order = {id(stmt): idx for idx, stmt in enumerate(loop.body)}

    def top_stmt_index(site) -> int | None:
        # The enclosing top-level statement of a reference site.
        for enclosing in [site.stmt] + list(site.loops):
            if id(enclosing) in order:
                return order[id(enclosing)]
        return None

    for dep in find_dependences([loop]):
        if dep.carried_level() != 0:
            continue  # loop-independent or carried deeper: unaffected
        src = top_stmt_index(dep.source)
        dst = top_stmt_index(dep.sink)
        if src is None or dst is None:
            continue
        if src > dst:
            return False
    return True


def distribute(loop: DoLoop) -> list[DoLoop]:
    """Fission *loop* into one loop per top-level body statement."""
    if not can_distribute(loop):
        raise DependenceError(f"distribution of loop {loop.var!r} is not legal")
    out: list[DoLoop] = []
    for stmt in loop.body:
        out.append(
            DoLoop(
                var=loop.var,
                lb=loop.lb,
                ub=loop.ub,
                step=loop.step,
                body=[_clone(stmt)],
                line=loop.line,
            )
        )
    return out


# ---------------------------------------------------------------------------
# strip mining
# ---------------------------------------------------------------------------


def specialize(loop: DoLoop, env: dict[str, int]) -> DoLoop:
    """Substitute parameter values into all bounds of a loop nest."""
    result = _specialized(loop, env)
    assert isinstance(result, DoLoop)
    return result


def _specialized(stmt: Stmt, env: dict[str, int]) -> Stmt:
    if isinstance(stmt, DoLoop):
        return DoLoop(
            var=stmt.var,
            lb=stmt.lb.substitute(env),
            ub=stmt.ub.substitute(env),
            step=stmt.step,
            body=[_specialized(s, env) for s in stmt.body],
            line=stmt.line,
        )
    assert isinstance(stmt, Assign)
    return _clone(stmt)


def strip_mine(loop: DoLoop, block: int, strip_var: str | None = None) -> DoLoop:
    """Block a constant-bound unit-step loop into strips of *block*.

    ``DO i = lo, hi`` becomes::

        DO i_strip = lo, hi, block
          DO i = i_strip, min(i_strip + block - 1, hi)

    The inner upper bound must stay affine, so the trip count must divide
    evenly by *block* (the classic divisibility restriction); otherwise a
    :class:`~repro.errors.DependenceError` explains the failure.
    """
    if block < 1:
        raise DependenceError(f"strip size must be >= 1, got {block}")
    if loop.step != 1:
        raise DependenceError("strip mining requires a unit-step loop")
    if not (loop.lb.is_constant and loop.ub.is_constant):
        raise DependenceError(
            "strip mining requires constant bounds; use specialize() first"
        )
    lo, hi = loop.lb.const, loop.ub.const
    trips = max(0, hi - lo + 1)
    if trips % block != 0:
        raise DependenceError(
            f"strip size {block} does not divide the trip count {trips}"
        )
    strip_var = strip_var or f"{loop.var}_strip"
    inner = DoLoop(
        var=loop.var,
        lb=Affine.var(strip_var),
        ub=Affine.var(strip_var) + (block - 1),
        step=1,
        body=[_clone(s) for s in loop.body],
        line=loop.line,
    )
    return DoLoop(
        var=strip_var,
        lb=Affine.constant(lo),
        ub=Affine.constant(hi),
        step=block,
        body=[inner],
        line=loop.line,
    )
