"""Execute Algorithm 1's chosen redistribution chain and reconcile costs.

The DP picks its scheme sequence by summing *analytic* redistribution
costs; this module closes the loop (ISSUE 2): every transition of the
chosen chain is lowered to a generated SPMD program
(:mod:`repro.codegen.redist`), executed on the simulator — by default
on both backends of :data:`~repro.machine.threaded.BACKENDS`, which
differ only in how a program error surfaces, so on a passing chain the
second run repeats the first (``backends=("engine",)`` runs it once) —
and checked two ways:

* **element-level correctness** — after the run, every rank holds exactly
  the destination placement's local section of every moved array;
* **word-count calibration** — the traffic measured by the metrics
  registry must sit inside the documented slack band around the analytic
  :attr:`~repro.distribution.redistribution.RedistPlan.analytic_words`
  (``docs/REDISTRIBUTION.md``): for exact literal lowerings,
  ``lower * analytic <= measured <= upper * analytic`` and the lowering
  runs only primitives the plan names; generic-exchange fallbacks and
  non-literal rules are correctness-checked only.

Simulated *time* is deliberately compared loosely (ratio recorded, never
gated): the machine model charges ``tc`` per word at both endpoints, so
measured makespans sit near twice the one-sided Table 1 forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from repro.codegen.redist import RedistMove, emit_redistribution_program
from repro.codegen.spmd import load_generated
from repro.costmodel.bands import REDIST_WORDS
from repro.distribution.redistribution import RedistPlan
from repro.distribution.runtime import lower_placement_delta
from repro.distribution.schemes import ArrayPlacement, Scheme
from repro.distribution.sections import pack_section
from repro.dp.algorithm1 import DPResult
from repro.dp.phases import PhaseTables
from repro.errors import DistributionError
from repro.machine.model import MachineModel
from repro.machine.threaded import BACKENDS
from repro.machine.topology import Grid2D


@dataclass(frozen=True)
class ArrayCheck:
    """Reconciliation of one array's move within a transition."""

    array: str
    exact: bool
    kinds: tuple[str, ...]  # primitives the lowering runs
    planned: tuple[str, ...]  # primitives the plan names
    analytic_words: float
    measured_words: dict[str, int]  # backend -> words
    sections_ok: dict[str, bool]  # backend -> exactness of final sections

    def words_ok(self, lower: float, upper: float) -> bool:
        if not self.exact:
            return True  # fallback lowerings are correctness-checked only
        for measured in self.measured_words.values():
            if self.analytic_words == 0:
                if measured != 0:
                    return False
            elif not (
                lower * self.analytic_words <= measured <= upper * self.analytic_words
            ):
                return False
        return True

    def ok(self, lower: float = REDIST_WORDS.lower, upper: float = REDIST_WORDS.upper) -> bool:
        literal = not self.exact or set(self.kinds) <= set(self.planned)
        return literal and all(self.sections_ok.values()) and self.words_ok(lower, upper)


@dataclass(frozen=True)
class TransitionReport:
    """One executed transition of the chosen chain."""

    label: str
    grid: tuple[int, int]
    plan: RedistPlan
    checks: tuple[ArrayCheck, ...]
    makespan: dict[str, float]  # backend -> simulated finish time

    @property
    def analytic_words(self) -> float:
        return self.plan.analytic_words

    def measured_words(self, backend: str) -> int:
        return sum(c.measured_words.get(backend, 0) for c in self.checks)

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.checks)

    def ok(self, lower: float = REDIST_WORDS.lower, upper: float = REDIST_WORDS.upper) -> bool:
        return all(c.ok(lower, upper) for c in self.checks)


@dataclass(frozen=True)
class RedistValidation:
    """All transitions of one DP solution, executed and reconciled."""

    transitions: tuple[TransitionReport, ...]
    backends: tuple[str, ...]
    lower: float = REDIST_WORDS.lower
    upper: float = REDIST_WORDS.upper

    @property
    def ok(self) -> bool:
        return all(t.ok(self.lower, self.upper) for t in self.transitions)

    def describe(self, model: MachineModel) -> str:
        """The transitions, each term priced by *model*."""
        lines = []
        for t in self.transitions:
            state = "ok" if t.ok(self.lower, self.upper) else "FAIL"
            measured = ", ".join(
                f"{b}={t.measured_words(b)}" for b in self.backends
            )
            lines.append(
                f"{t.label} @ {t.grid[0]}x{t.grid[1]}: analytic {t.analytic_words:g} "
                f"words, measured {measured} "
                f"[{'literal' if t.exact else 'fallback'}] {state}"
            )
            if not t.plan.terms:
                lines.append("  (free: no data movement)")
            for term in t.plan.terms:
                lines.append(f"  {term.describe(model)}")
        return "\n".join(lines)


def _plan_moves(
    plan: RedistPlan, extents: dict[str, tuple[int, ...]]
) -> list[RedistMove]:
    """The per-array moves a plan implies (arrays whose placement changed)."""
    if isinstance(plan.src, Scheme) and isinstance(plan.dst, Scheme):
        shared = [a for a in plan.src.arrays() if a in plan.dst.arrays()]
        pairs = [
            (plan.src.placement(a), plan.dst.placement(a))
            for a in shared
        ]
    elif isinstance(plan.src, ArrayPlacement) and isinstance(plan.dst, ArrayPlacement):
        pairs = [(plan.src, plan.dst)]
    else:  # pragma: no cover - planner only builds the two shapes above
        raise DistributionError(f"cannot execute plan between {plan.src!r} and {plan.dst!r}")
    moves = []
    for sp, dp in pairs:
        if sp == dp:
            continue
        if sp.array not in extents:
            raise DistributionError(f"no extents known for array {sp.array!r}")
        moves.append(RedistMove(sp.array, sp, dp, extents[sp.array]))
    return moves


def execute_plan(
    plan: RedistPlan,
    extents: dict[str, tuple[int, ...]],
    label: str,
    backends: tuple[str, ...] = ("engine", "threaded"),
    model=None,
    data: dict[str, np.ndarray] | None = None,
) -> TransitionReport:
    """Run one redistribution plan on the listed backends and reconcile it."""
    for b in backends:
        if b not in BACKENDS:
            raise DistributionError(
                f"unknown backend {b!r}; expected one of {sorted(BACKENDS)}"
            )
    moves = _plan_moves(plan, extents)
    grid = tuple(plan.grid)
    if not moves:
        return TransitionReport(
            label=label, grid=grid, plan=plan, checks=(), makespan={b: 0.0 for b in backends}
        )
    if data is None:
        data = {}
        for mv in moves:
            total = prod(mv.extents)
            data[mv.array] = np.arange(1, total + 1, dtype=np.float64)

    gen = emit_redistribution_program(moves, grid, name=label)
    fn = load_generated(gen)
    per_array_words: dict[str, dict[str, int]] = {mv.array: {} for mv in moves}
    sections_ok: dict[str, dict[str, bool]] = {mv.array: {} for mv in moves}
    makespan: dict[str, float] = {}
    for backend in backends:
        res = BACKENDS[backend](Grid2D(*grid), model).run(fn, args=(data,))
        makespan[backend] = max(res.finish_times)
        for mv in moves:
            stats = res.metrics.scope_totals(mv.scope())
            per_array_words[mv.array][backend] = stats.words
            ok = True
            for rank in range(grid[0] * grid[1]):
                want = pack_section(data[mv.array], mv.dst, mv.extents, grid, rank)
                got = res.values[rank][mv.array]
                if not np.array_equal(want, np.asarray(got)):
                    ok = False
                    break
            sections_ok[mv.array][backend] = ok

    checks = []
    for mv in moves:
        lowering = lower_placement_delta(mv.src, mv.dst, mv.extents, grid)
        terms = [t for t in plan.terms if t.array == mv.array]
        checks.append(
            ArrayCheck(
                array=mv.array,
                exact=lowering.exact,
                kinds=tuple(sorted(lowering.kinds)),
                planned=tuple(sorted({t.primitive for t in terms})),
                analytic_words=sum(t.volume for t in terms),
                measured_words=per_array_words[mv.array],
                sections_ok=sections_ok[mv.array],
            )
        )
    return TransitionReport(
        label=label, grid=grid, plan=plan, checks=tuple(checks), makespan=makespan
    )


def validate_transitions(
    tables: PhaseTables,
    result: DPResult,
    backends: tuple[str, ...] = ("engine", "threaded"),
    lower: float = REDIST_WORDS.lower,
    upper: float = REDIST_WORDS.upper,
) -> RedistValidation:
    """Execute every transition of the DP's chosen chain (the ``execute=True``
    mode of :func:`repro.dp.phases.solve_program_distribution`)."""
    extents = {name: decl.shape(tables.env) for name, decl in tables.program.arrays.items()}
    reports = []
    for label, plan in tables.transition_plans(result):
        reports.append(
            execute_plan(plan, extents, label, backends=backends, model=tables.model)
        )
    return RedistValidation(
        transitions=tuple(reports), backends=tuple(backends), lower=lower, upper=upper
    )
