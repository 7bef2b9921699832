"""Broadcast-to-Shift rewriting decisions (paper §6).

Given a nest, its token analysis and a chosen index-processor mapping,
decide for every token which communication it needs:

* ``none`` — producer and all consumers share a processor;
* ``shift`` — consumers advance one processor per use: pipeline with
  send/receive to the neighbor (the paper's substitution of
  OneToManyMulticast by Shift in Fig 8);
* ``multicast`` — irregular consumers: keep OneToManyMulticast.

:func:`pipeline_savings` prices the rewrite with the Table 1 primitives,
quantifying §6's "a naive compiler ... certainly incurs excessive
communication overhead".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.primitives import ONE_TO_MANY, SHIFT
from repro.dependence.tokens import TokenClass
from repro.lang.analysis import mean_trips, nest_runs
from repro.lang.ast import DoLoop
from repro.machine.model import MachineModel
from repro.pipeline.mapping import MappingChoice, choose_mapping
from repro.util.tables import Table


@dataclass(frozen=True)
class CommDecision:
    """Final communication choice for one token."""

    token_text: str
    line: int
    pattern: str  # "none", "shift", or "multicast"
    direction: int  # +1 toward increasing PE, -1 decreasing, 0 n/a

    def describe(self) -> str:
        if self.pattern == "none":
            return f"{self.token_text}: local (no communication)"
        if self.pattern == "shift":
            arrow = "right" if self.direction > 0 else "left"
            return f"{self.token_text}: pipeline (Shift {arrow})"
        return f"{self.token_text}: OneToManyMulticast"


def _decision(row: TokenClass) -> CommDecision:
    if row.pattern == "local":
        pattern, direction = "none", 0
    elif row.pattern == "pipeline":
        nz = [d for d in row.dots if d != 0]
        pattern, direction = "shift", (1 if nz[0] > 0 else -1)
    else:
        pattern, direction = "multicast", 0
    return CommDecision(
        token_text=str(row.token.site.ref),
        line=row.token.line,
        pattern=pattern,
        direction=direction,
    )


def pipeline_decisions(nest: DoLoop) -> tuple[MappingChoice, list[CommDecision]]:
    """Choose a mapping for *nest* and derive all token decisions."""
    choice = choose_mapping(nest)
    return choice, [_decision(row) for row in choice.rows]


@dataclass(frozen=True)
class TokenCost:
    token_text: str
    line: int
    pattern: str
    uses: float
    naive_cost: float
    pipelined_cost: float


def pipeline_savings(
    nest: DoLoop,
    env: dict[str, int],
    model: MachineModel,
    nprocs: int,
) -> tuple[list[TokenCost], float, float]:
    """Analytic naive-vs-pipelined communication cost per token.

    Naive: every non-local token instance is OneToManyMulticast to the
    ring; pipelined: each instance is received once and forwarded once
    per visited processor, but off the critical path — we charge the two
    endpoint transfers the owner-to-next-owner chain pays (``2 tc`` per
    word, §5's accounting).  Returns (rows, naive_total, pipelined_total).
    """
    choice, decisions = pipeline_decisions(nest)
    rows: list[TokenCost] = []
    naive_total = 0.0
    pipe_total = 0.0
    for row, decision in zip(choice.rows, decisions):
        token = row.token
        # Count of distinct token instances: product of trip counts of the
        # *bound* variables (those appearing in the subscripts).
        uses = 1.0
        for var, trips in mean_trips(token.site.loops, env).items():
            if var not in token.free_vars:
                uses *= trips
        if not nest_runs(token.site.loops, env):
            uses = 0.0  # the reading statement never runs
        if decision.pattern == "none":
            naive, pipe = 0.0, 0.0
        else:
            naive = model.seconds(0, *ONE_TO_MANY.counts(1, nprocs, uses))
            pipe = naive
            if decision.pattern == "shift":
                pipe = model.seconds(0, *SHIFT.counts(1, 2, uses * 2))
        naive_total += naive
        pipe_total += pipe
        rows.append(
            TokenCost(
                token_text=str(token.site.ref),
                line=token.line,
                pattern=decision.pattern,
                uses=uses,
                naive_cost=naive,
                pipelined_cost=pipe,
            )
        )
    return rows, naive_total, pipe_total


def savings_table(rows: list[TokenCost]) -> str:
    table = Table(["token", "line", "pattern", "instances", "naive", "pipelined"])
    for r in rows:
        table.add_row(
            [r.token_text, r.line, r.pattern, f"{r.uses:g}",
             f"{r.naive_cost:g}", f"{r.pipelined_cost:g}"]
        )
    return table.render()
