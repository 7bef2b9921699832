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

from repro.codegen.families import family_of
from repro.codegen.spmd import GeneratedProgram, generate_spmd, load_generated
from repro.errors import ReproError
from repro.lang.ast import Program
from repro.machine.engine import RunResult
from repro.machine.model import MachineModel
from repro.machine.threaded import BACKENDS


def _is_int(value) -> bool:
    """A real integer: ``int`` or an integral numpy scalar, never ``bool``."""
    # a plain int (nearly every value) skips the ABC check
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


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

    A served cache hit reads ``result`` only, and ``tables`` is 98 % of
    the pickled outcome, so the plan cache stores the two apart
    (:mod:`repro.service.cache`, "Entry layout"): an outcome that came
    out of the cache decodes its ``tables`` the first time they are
    read.  Nothing else about it differs — it compares, unpacks and
    pickles (byte for byte) like the outcome that went in.
    """

    tables: object  # repro.dp.phases.PhaseTables
    result: object  # repro.dp.algorithm1.DPResult
    validation: object | None = None  # repro.dp.validate.RedistValidation

    # -- the plan cache's deferred section --------------------------------
    def _cache_split(self):
        state = self.__dict__
        return (state["result"], state["validation"]), state.get("tables", state.get("_rest"))

    @classmethod
    def _cache_join(cls, head, rest):
        self = object.__new__(cls)
        result, validation = head
        self.__dict__.update(result=result, validation=validation, _rest=rest)
        return self

    def __getattr__(self, name):
        # Only reached when normal lookup fails, i.e. for the ``tables``
        # of a cache hit that nobody has read yet.
        state = self.__dict__
        if name == "tables" and "_rest" in state:
            tables = state["tables"] = state["_rest"]()
            return tables
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self):
        # Field order, whatever order __dict__ was filled in: the pickle
        # is an exact golden (tests/goldens/solve_pickles.json).
        return {"tables": self.tables, "result": self.result, "validation": self.validation}

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
        if not _is_int(nprocs) or nprocs < 1:
            raise ReproError(f"nprocs must be a positive integer, got {nprocs!r}")
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
        from repro.dp.phases import solve_program_distribution

        out = solve_program_distribution(
            self.program, nprocs, check_env(env), model or MachineModel(),
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
