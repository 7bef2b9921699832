"""The compile request, stage by stage, from outside.

``Session.compile`` is one call; to say which layer a millisecond went
to, the traced pass serves the same request by calling the same *public*
functions the service calls, in the same order, with a span around each.
Nothing in ``repro`` is patched or switched.  The replica's answer is
checked against the real ``Session.compile`` (same generated source,
same Algorithm 1 cost), so it cannot drift from the code it stands for.
"""

from __future__ import annotations

from repro.alignment import alignment_to_scheme, build_cag, exact_alignment, greedy_alignment
from repro.codegen.spmd import generate_spmd
from repro.costmodel import estimate_loop_cost, grid_candidates
from repro.dp import PhaseTables, algorithm1
from repro.dp.phases import PhaseEntry
from repro.errors import AlignmentError
from repro.lang import DoLoop, parse_program
from repro.lang.analysis import collect_ref_sites
from repro.service import canonicalize, lower, program_digest, solve_digest
from repro.service.plan import SolveOutcome


def lower_source(rec, source, guest: str):
    """DSL text goes through the parser (the whole of the ``dsl`` guest);
    any other surface through its guest."""
    if guest == "dsl":
        with rec.span("lang.parse"):
            return parse_program(source)
    with rec.span("service.guests.lower", guest=guest):
        return lower(source, guest)


def build_tables(rec, program, nprocs: int, env: dict, model) -> PhaseTables:
    """``repro.dp.build_phase_tables`` with a span per segment stage."""
    top = program.loops()
    outer = top[0] if len(top) == 1 else None
    loops = [s for s in outer.body if isinstance(s, DoLoop)] if outer is not None else top
    tables = PhaseTables(program=program, loops=list(loops), nprocs=nprocs,
                         env=dict(env), model=model, outer=outer)
    grids = grid_candidates(nprocs)
    s = len(loops)
    for i in range(1, s + 1):
        for j in range(1, s - i + 2):
            stmts = list(loops[i - 1 : i - 1 + j])
            with rec.span("alignment.segment"):
                cag = build_cag(stmts, program, env, model, nprocs)
                try:
                    alignment = exact_alignment(cag, q=2)
                except AlignmentError:
                    alignment = greedy_alignment(cag, q=2)
                written = {site.array for site in collect_ref_sites(stmts) if site.is_write}
                scheme = alignment_to_scheme(
                    alignment, cag, replicated_reads=frozenset(set(cag.arrays) - written),
                    name=f"P[{i},{j}]",
                )
            with rec.span("costmodel.loopcost", calls=len(grids) * len(stmts)):
                best_cost, best_grid = float("inf"), (nprocs, 1)
                for grid in grids:
                    total = sum(
                        estimate_loop_cost(loop, scheme, grid, env, model).total for loop in stmts
                    )
                    if total < best_cost:
                        best_cost, best_grid = total, grid
            tables.entries[(i, j)] = PhaseEntry(
                scheme=scheme, grid=best_grid, cost=best_cost, alignment=alignment, cag=cag
            )
    return tables


def solve(rec, tables: PhaseTables):
    """Algorithm 1 with a span around every redistribution-oracle call."""

    def change_cost(p_prev, p_next):
        with rec.span("distribution.redistribution", oracle="change"):
            return tables.change_cost(p_prev, p_next)

    def loop_carried_cost(p_first, p_last):
        with rec.span("distribution.redistribution", oracle="loop-carried"):
            return tables.loop_carried_cost(p_first, p_last)

    with rec.span("dp.algorithm1"):
        return algorithm1(tables.s, tables.M, tables.P, change_cost, loop_carried_cost)


def serve(rec, cache, model, source, guest: str, nprocs: int, env: dict, label: str):
    """One request through *cache* (a ``PlanCache``); returns
    ``(generated, outcome, plan_hit, solve_hit)``."""
    with rec.span("bench.request", label=label, guest=guest):
        program = lower_source(rec, source, guest)
        with rec.span("service.normalize.canonicalize"):
            form = canonicalize(program)
        with rec.span("service.normalize.digest"):
            plan_key = program_digest(program, None, form=form)
        with rec.span("service.cache.lookup"):
            entry = cache.get(plan_key)
        plan_hit = entry is not None
        if plan_hit:
            generated = entry["generated"]
            stored = {canon: orig for orig, canon in entry["rename"].items()}
            rename = {orig: stored[canon] for orig, canon in form.rename.items() if canon in stored}
        else:
            with rec.span("codegen.generate"):
                generated = generate_spmd(program)
            rename = {name: name for name in form.rename}
            with rec.span("service.cache.put"):
                cache.put(plan_key, {"program": program, "generated": generated,
                                     "rename": dict(form.rename)})
        with rec.span("service.normalize.digest"):
            solve_key = solve_digest(program, nprocs, env, model, None, form=form)
        with rec.span("service.cache.lookup"):
            outcome = cache.get(solve_key)
        solve_hit = outcome is not None
        if not solve_hit:
            stored_env = {rename.get(k, k): v for k, v in env.items()}
            solved_program = entry["program"] if plan_hit else program
            with rec.span("dp.tables"):
                tables = build_tables(rec, solved_program, nprocs, stored_env, model)
            outcome = SolveOutcome(tables=tables, result=solve(rec, tables))
            with rec.span("service.cache.put"):
                cache.put(solve_key, outcome)
    return generated, outcome, plan_hit, solve_hit
