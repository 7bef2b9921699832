"""Compiled-program artifacts: :class:`Plan` and its typed payloads.

A :class:`Plan` is the unit the content-addressed cache stores: the
source IR plus its generated SPMD code.  Its inspection surfaces return
typed dataclasses rather than ad-hoc dicts/tuples:

* :meth:`Plan.solve` → :class:`SolveOutcome` (iterable like the legacy
  ``(tables, result[, validation])`` tuple, so unpacking call sites
  keep working);
* :meth:`Plan.explain` → :class:`Explanation` (``str()`` renders the
  familiar report; the fields are machine-readable).

Machine parameters are keyword-only throughout: the positional surface
is just ``(nprocs, env)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

from repro.codegen.families import family_of
from repro.codegen.spmd import GeneratedProgram, generate_spmd, load_generated
from repro.dp.algorithm1 import DPResult
from repro.dp.phases import PhaseTables, solve_program_distribution
from repro.errors import ReproError
from repro.lang.ast import Program
from repro.machine.engine import RunResult
from repro.machine.model import MachineModel
from repro.machine.threaded import BACKENDS
from repro.util.lazy import Lazy, lazy, pending


def _is_int(value) -> bool:
    """A real integer: ``int`` or an integral numpy scalar, never ``bool``."""
    # a plain int (nearly every value) skips the ABC check
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def check_nprocs(nprocs) -> int:
    """*nprocs* as a plain ``int`` >= 1, checked at the public boundary like
    :func:`check_env`: integral numpy scalars are coerced, ``bool``, ``str``,
    ``float`` and values below 1 are a :class:`ReproError`."""
    if not _is_int(nprocs) or nprocs < 1:
        raise ReproError(f"nprocs must be a positive integer, got {nprocs!r}")
    return int(nprocs)


def check_env(env) -> dict[str, int]:
    """*env* as plain ``int`` values — the one check at the public boundary.

    Keys are parameter names (``str``).  Integral numpy scalars are coerced
    (``np.int64(8)`` and ``8`` must share a ``solve_digest``); anything
    else, ``bool`` included, is a :class:`ReproError` naming the key.
    """
    if not isinstance(env, dict):
        raise ReproError(f"env must be a dict of integer parameters, got {env!r}")
    checked = {}
    for key, value in env.items():
        if type(key) is not str:
            raise ReproError(f"env keys must be parameter names (str), got {key!r}")
        if not _is_int(value):
            raise ReproError(
                f"env[{key!r}] must be an integer, got {value!r} ({type(value).__name__})"
            )
        checked[key] = int(value)
    return checked


def _default_inputs(gen: GeneratedProgram, env: dict[str, int], seed: int) -> dict:
    """Fabricate inputs matching the recognized pattern (SPD system for
    solvers, random operands for matmul)."""
    fabricate = family_of(gen).inputs
    if fabricate is None:
        raise ReproError(
            f"cannot build default inputs for strategy {gen.strategy!r}; "
            f"pass inputs= explicitly"
        )
    return fabricate(gen.pattern, env.get("m", env.get("n", 16)), env, seed)


def _is_chain_of(result, tables) -> bool:
    """Whether ``result.schemes`` holds, per segment, the very scheme and
    grid objects of ``tables.entries`` — what a cache hit rebuilds, and
    what makes it pickle to the cold bytes."""
    if len(result.schemes) != len(result.segments):
        return False
    for seg, pair in zip(result.segments, result.schemes):
        entry = tables.entries.get(seg)
        if entry is None or not isinstance(pair, tuple) or len(pair) != 2:
            return False
        if pair[0] is not entry.scheme or pair[1] is not entry.grid:
            return False
    return True


@dataclass(frozen=True)
class SegmentChoice:
    """One chosen segment of the DP chain: where it runs and how."""

    label: str  # "L1" or "L1..L2"
    start: int
    length: int
    grid: tuple[int, int]
    description: str  # Scheme.describe()


@dataclass(frozen=True)
class TransitionCost:
    """One redistribution along the chosen chain."""

    label: str  # "L1 -> L2" or "loop[X]"
    total: float
    analytic_words: float


@dataclass(frozen=True)
class Explanation:
    """What the compiler decided (and, with a solve, what Algorithm 1
    chose); ``str()`` renders the human-readable report."""

    strategy: str
    entry: str
    pattern: object
    nprocs: int | None = None
    env: dict | None = None
    total_cost: float | None = None
    loop_carried: float | None = None
    segments: tuple[SegmentChoice, ...] = ()
    transitions: tuple[TransitionCost, ...] = ()

    def __str__(self) -> str:
        lines = [
            f"strategy: {self.strategy}",
            f"entry:    {self.entry}",
            f"pattern:  {self.pattern!r}",
        ]
        if self.nprocs is not None and self.env is not None:
            lines.append(f"N = {self.nprocs}, env = {self.env}")
            lines.append(f"total cost {self.total_cost:g} "
                         f"(loop-carried {self.loop_carried:g})")
            for seg in self.segments:
                lines.append(
                    f"  {seg.label} on {seg.grid[0]}x{seg.grid[1]}: {seg.description}"
                )
            for tr in self.transitions:
                lines.append(f"  change {tr.label}: {tr.total:g} "
                             f"({tr.analytic_words:g} words)")
        return "\n".join(lines)

    def __contains__(self, item: str) -> bool:
        return item in str(self)


@dataclass(frozen=True)
class SolveOutcome:
    """Algorithm 1's answer for a plan under ``(nprocs, env, machine)``.

    Iterates like the legacy tuple — ``tables, result = plan.solve(...)``
    and the three-element ``execute=True`` unpacking both still work.

    A served cache hit reads ``result``'s scalars only, and ``tables``
    is 98 % of the pickled outcome, so the plan cache stores the two
    apart (:mod:`repro.service.cache`, "Entry layout").  The head is
    ``result`` without its ``schemes``, which are derived: Algorithm 1's
    chain is ``tables.P`` read along ``result.segments``.  An outcome
    that came out of the cache holds a lazy
    :class:`~repro.dp.phases.PhaseTables` and a partly eager
    :class:`~repro.dp.algorithm1.DPResult` (:mod:`repro.util.lazy`)
    whose ``schemes`` are rebuilt from those tables, decoding them, the
    first time either is read.  Nothing else about it differs — it
    compares, unpacks and pickles (byte for byte) like the outcome that
    went in.  The put refuses an outcome whose ``schemes`` are not the
    tables' own chain, object for object: a hit could not rebuild them.
    """

    tables: object  # repro.dp.phases.PhaseTables
    result: object  # repro.dp.algorithm1.DPResult
    validation: object | None = None  # repro.dp.validate.RedistValidation

    # -- the plan cache's deferred section --------------------------------
    def _cache_split(self):
        result, tables = self.result, self.tables
        # An unfilled result came out of the cache: its chain is the
        # tables' by construction, and reading it would decode them.
        if pending(result) is None and not _is_chain_of(result, tables):
            raise TypeError("result.schemes is not the chain of the outcome's tables")
        head = (result.cost, result.segments, result.segment_costs,
                result.change_costs, result.loop_carried)
        return (head, self.validation), tables

    @classmethod
    def _cache_join(cls, head, rest):
        (cost, segments, segment_costs, change_costs, loop_carried), validation = head
        tables = lazy(PhaseTables, rest)

        def chosen():
            schemes = tuple(tables.P(i, j) for i, j in segments)
            return DPResult(cost, segments, schemes, segment_costs, change_costs, loop_carried)

        result = lazy(
            DPResult, chosen, cost=cost, segments=segments, segment_costs=segment_costs,
            change_costs=change_costs, loop_carried=loop_carried,
        )
        return cls(tables=tables, result=result, validation=validation)

    @property
    def cost(self) -> float:
        return self.result.cost

    @property
    def loop_carried(self) -> float:
        return self.result.loop_carried

    def __iter__(self):
        yield self.tables
        yield self.result
        if self.validation is not None:
            yield self.validation


class PlanEntry(NamedTuple):
    """A plan as the cache stores it; a hit is served as the plain dict
    ``{"program", "generated", "rename"}``.

    The head is what a served hit reads — the generated source, entry
    and strategy, the pattern's class and the rename map — and the
    deferred rest is ``(program, pattern)``: a hit's ``program`` and
    ``generated.pattern`` are lazy instances (:mod:`repro.util.lazy`)
    that decode the rest the first time either is read.
    """

    program: Program
    generated: GeneratedProgram
    rename: dict[str, str]

    def _cache_split(self):
        gen = self.generated
        if not isinstance(gen.pattern, Lazy):
            # Caught here, on the put, rather than as a hit that never fills.
            raise TypeError(f"pattern class {type(gen.pattern).__name__} does not use the Lazy mixin")
        head = (gen.source, gen.entry, gen.strategy, type(gen.pattern), self.rename)
        return head, (self.program, gen.pattern)

    @classmethod
    def _cache_join(cls, head, rest):
        source, entry, strategy, pattern_cls, rename = head
        pattern = lazy(pattern_cls, lambda: rest()[1])
        return {
            "program": lazy(Program, lambda: rest()[0]),
            "generated": GeneratedProgram(source, entry, strategy, pattern),
            "rename": rename,
        }


@dataclass(frozen=True)
class Plan:
    """A compiled program: the source IR plus its generated SPMD code."""

    program: Program
    generated: GeneratedProgram

    @property
    def strategy(self) -> str:
        return self.generated.strategy

    @property
    def source(self) -> str:
        """The generated SPMD source text."""
        return self.generated.source

    # -- execution -------------------------------------------------------
    def run(
        self,
        nprocs: int,
        env: dict[str, int],
        *,
        model: MachineModel | None = None,
        inputs: dict | None = None,
        seed: int = 0,
        backend: str = "engine",
        trace: bool = False,
    ) -> RunResult:
        """Execute the generated program on *nprocs* simulated processors.

        *backend* selects the deterministic event-driven ``"engine"`` or
        the real-thread ``"threaded"`` runtime; both produce the same
        values and traffic.
        """
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
            )
        nprocs = check_nprocs(nprocs)
        env = check_env(env)
        model = model or MachineModel()
        fn = load_generated(self.generated)
        if inputs is None:
            inputs = _default_inputs(self.generated, env, seed)
        topology = family_of(self.generated).topology(nprocs)
        return BACKENDS[backend](topology, model, trace=trace).run(fn, args=(inputs,))

    # -- analysis --------------------------------------------------------
    def solve(
        self,
        nprocs: int,
        env: dict[str, int],
        *,
        model: MachineModel | None = None,
        execute: bool = False,
        backends: tuple[str, ...] = ("engine", "threaded"),
        segment_memo: dict | None = None,
    ) -> SolveOutcome:
        """Run Algorithm 1 on the program; with ``execute=True`` also
        lower and run every chosen redistribution
        (:mod:`repro.dp.validate`) and fill ``validation``."""
        out = solve_program_distribution(
            self.program, check_nprocs(nprocs), check_env(env), model or MachineModel(),
            execute=execute, backends=backends, segment_memo=segment_memo,
        )
        if execute:
            tables, result, validation = out
            return SolveOutcome(tables=tables, result=result, validation=validation)
        tables, result = out
        return SolveOutcome(tables=tables, result=result)

    def explain(
        self,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        *,
        model: MachineModel | None = None,
    ) -> Explanation:
        """What the compiler decided, and — with *nprocs*/*env* — what
        Algorithm 1 chooses for it."""
        base = dict(
            strategy=self.strategy,
            entry=self.generated.entry,
            pattern=self.generated.pattern,
        )
        if nprocs is not None:
            nprocs = check_nprocs(nprocs)
        if nprocs is None or env is None:
            return Explanation(**base)
        outcome = self.solve(nprocs, env, model=model)
        tables, result = outcome.tables, outcome.result
        segments = []
        for (start, length), (scheme, grid) in zip(result.segments, result.schemes):
            label = f"L{start}" if length == 1 else f"L{start}..L{start + length - 1}"
            segments.append(
                SegmentChoice(
                    label=label, start=start, length=length,
                    grid=grid, description=scheme.describe(),
                )
            )
        transitions = [
            TransitionCost(
                label=label, total=plan.total, analytic_words=plan.analytic_words
            )
            for label, plan in tables.transition_plans(result)
        ]
        return Explanation(
            **base,
            nprocs=nprocs,
            env=dict(env),
            total_cost=result.cost,
            loop_carried=result.loop_carried,
            segments=tuple(segments),
            transitions=tuple(transitions),
        )


def compile_plan(program: Program, strategy: str | None = None) -> Plan:
    """Recognize *program* and generate its SPMD code (no cache)."""
    return Plan(program=program, generated=generate_spmd(program, strategy=strategy))
