"""Index-processor mapping selection (paper §6, Table 5).

The §6 method maps iteration points to virtual processors with a row
vector ``pi`` (iteration ``I`` runs on PE ``pi . I``).  The mapping is
pinned by **owner computes**: an iteration must run on the processor that
owns the element it writes, so for each statement ``pi`` is the unit
vector of the loop variable driving the LHS's distributed subscript
(its first-dimension subscript under §6's row/element distributions).

With the per-statement mappings fixed, every communicated token is
classified by ``pi . e_v`` over its free-use directions
(:func:`repro.dependence.tokens.classify_token`):

* all zero — local (Table 5's ``(i-1) mod N`` column);
* a single ``+-1`` — pipelinable to a neighbor (Shift instead of
  OneToManyMulticast);
* anything else — a real multicast.

Because the paper distributes all arrays with the *same* cyclic function
``(index - 1) mod N``, the per-statement unit mappings are mutually
consistent: ``X(j)`` is computed at PE ``(j-1) mod N`` while the
accumulate runs at ``(i-1) mod N``, both instances of one virtual-PE
function.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.tokens import TokenClass, TokenInfo, analyze_tokens, classify_token
from repro.errors import DependenceError
from repro.lang.ast import ArrayRef, DoLoop
from repro.util.tables import Table


def _owner_var(token: TokenInfo, lhs_dim: int = 0) -> str | None:
    """Loop variable driving the LHS's distributed subscript.

    Under §6's distributions the first array dimension is the distributed
    one; the owner variable is the unique nest variable in that
    subscript.  ``None`` when the LHS subscript is constant over the nest
    (the statement's placement is then not iteration-dependent).
    """
    lhs = token.site.stmt.lhs
    if not isinstance(lhs, ArrayRef) or lhs.rank <= lhs_dim:
        return None
    nest_vars = set(token.nest_vars)
    candidates = [v for v in lhs.subscripts[lhs_dim].variables() if v in nest_vars]
    if len(candidates) == 1:
        return candidates[0]
    return None


@dataclass(frozen=True)
class MappingChoice:
    """Per-statement owner-computes mappings for one loop nest."""

    var: str  # the dominant virtual-PE variable (for display)
    nest_vars: tuple[str, ...]
    rows: tuple[TokenClass, ...]
    broadcasts: int
    pipelines: int
    unaligned_writes: int

    def vector_for(self, nest_vars: tuple[str, ...]) -> tuple[int, ...]:
        """The row vector ``pi`` over *nest_vars* (paper's (0, 1, 0) style)."""
        return tuple(1 if v == self.var else 0 for v in nest_vars)

    def describe(self) -> str:
        return (
            f"owner-computes mapping (dominant PE variable {self.var!r}): "
            f"{self.pipelines} pipelined token(s), {self.broadcasts} broadcast(s)"
        )


def choose_mapping(
    nest: DoLoop,
    arrays: frozenset[str] | None = None,
    lhs_dim: int = 0,
) -> MappingChoice:
    """Derive the owner-computes mapping of *nest* and classify tokens.

    Raises :class:`~repro.errors.DependenceError` when the nest contains
    no array assignments to pin the mapping.
    """
    tokens = analyze_tokens(nest, arrays=arrays)
    rows: list[TokenClass] = []
    owner_counts: dict[str, int] = {}
    unaligned = 0
    for token in tokens:
        var = _owner_var(token, lhs_dim=lhs_dim)
        if var is None:
            unaligned += 1
            pi = tuple(0 for _ in token.nest_vars)
        else:
            owner_counts[var] = owner_counts.get(var, 0) + 1
            pi = tuple(1 if v == var else 0 for v in token.nest_vars)
        rows.append(classify_token(token, pi))
    if not owner_counts:
        raise DependenceError("nest has no iteration-driven array writes to map")
    dominant = max(owner_counts, key=lambda v: (owner_counts[v], v))
    broadcasts = sum(1 for r in rows if r.pattern == "broadcast")
    pipelines = sum(1 for r in rows if r.pattern == "pipeline")
    return MappingChoice(
        var=dominant,
        nest_vars=tuple(_nest_vars(nest, [])),
        rows=tuple(rows),
        broadcasts=broadcasts,
        pipelines=pipelines,
        unaligned_writes=unaligned,
    )


def _nest_vars(loop: DoLoop, found: list[str]) -> list[str]:
    """*found* extended by the loop indices of *loop*'s nest, each once, in pre-order."""
    if loop.var not in found:
        found.append(loop.var)
    for stmt in loop.body:
        if isinstance(stmt, DoLoop):
            _nest_vars(stmt, found)
    return found


def mapping_table(choices: list[MappingChoice], nprocs_symbol: str = "N") -> str:
    """Render Table 5: token, line, use family, mappings, used-in PEs."""
    table = Table(
        ["token", "line", "used in indices", "virtual-PE mapping",
         "dependence-vector mapping", "used in PEs"]
    )
    for choice in choices:
        for row in choice.rows:
            token = row.token
            pi_str = "(" + ", ".join(str(c) for c in row.mapping) + ")"
            idx = "(" + ", ".join(token.nest_vars) + ")^t"
            dots = ", ".join(str(d) for d in row.dots) if row.dots else "-"
            used = row.used_in_pes().replace("N", nprocs_symbol)
            mapped_var = [
                v for v, c in zip(token.nest_vars, row.mapping) if c == 1
            ]
            target = mapped_var[0] if mapped_var else "-"
            table.add_row(
                [
                    str(token.site.ref),
                    token.line,
                    token.use_family(),
                    f"{pi_str}{idx} = {target}",
                    dots,
                    used,
                ]
            )
    return table.render()
