"""Canonicalization + content addressing (repro.service.normalize).

The contract under test: programs the compiler cannot tell apart hash
identically (alpha-renaming, whitespace, declaration order, commutative
operand order), while programs it could treat differently (different
structure, strategy, machine parameters, N, env) hash apart — first on
hand-picked pairs, then as hypothesis-driven metamorphic pairs (ROADMAP
5a), then for the source-text memo that sits in front of the digests —
in one process, and across processes through the cache directory.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import pickle
import re
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, ReproError
from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    parse_program,
    program_to_text,
    sor_program,
)
from repro.lang.ast import ArrayDecl, Assign, BinOp, Call, DoLoop, UnaryOp
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.machine.model import MachineModel
from repro.service.compiler import CompileRequest
from repro.service import (
    CompileService,
    canonicalize,
    lower,
    program_digest,
    program_to_json,
    solve_digest,
)
from repro.util import spans
from tests.test_phase_tables_incremental import SUBSCRIPTS, chain_source

MODEL = MachineModel(tf=1, tc=10)

# Identifiers of the Jacobi listing, by role.
JACOBI_NAMES = ["A", "V", "B", "X", "m", "maxiter", "k", "i", "j"]
FRESH = [f"Q{i}Z" for i in range(len(JACOBI_NAMES))]


def rename_source(source: str, mapping: dict[str, str]) -> str:
    """Apply an identifier bijection to DSL text (word-boundary safe)."""
    def sub(match: re.Match) -> str:
        return mapping.get(match.group(0), match.group(0))

    return re.sub(r"[A-Za-z_][A-Za-z_0-9]*", sub, source)


class TestAlphaInvariance:
    @given(perm=st.permutations(FRESH))
    @settings(max_examples=40, deadline=None)
    def test_renamed_programs_hash_identically(self, perm):
        mapping = dict(zip(JACOBI_NAMES, perm))
        twin = parse_program(rename_source(JACOBI_SOURCE, mapping))
        assert program_digest(twin) == program_digest(jacobi_program())

    @given(perm=st.permutations(FRESH))
    @settings(max_examples=20, deadline=None)
    def test_rename_map_inverts_the_renaming(self, perm):
        mapping = dict(zip(JACOBI_NAMES, perm))
        twin = parse_program(rename_source(JACOBI_SOURCE, mapping))
        base, twin_form = canonicalize(jacobi_program()), canonicalize(twin)
        # Same canonical name on both sides of every declared pair.
        for orig, new in mapping.items():
            if orig in ("k", "i", "j"):
                continue  # loop indices are not part of the rename map
            assert twin_form.rename[new] == base.rename[orig]

    @given(
        data=st.lists(
            st.sampled_from(["  ", "\t", " ", "   "]), min_size=1, max_size=6
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_whitespace_permutations_hash_identically(self, data):
        source = JACOBI_SOURCE
        for idx, pad in enumerate(data):
            source = source.replace(" = ", f" ={pad}", idx % 2)
            source = source.replace("  DO", f"{pad}DO", (idx + 1) % 2)
        assert program_digest(parse_program(source)) == program_digest(
            jacobi_program()
        )

    def test_declaration_reorder_hashes_identically(self):
        reordered = JACOBI_SOURCE.replace(
            "PARAM m, maxiter", "PARAM maxiter, m"
        ).replace(
            "ARRAY A(m, m), V(m), B(m), X(m)", "ARRAY X(m), B(m), A(m, m), V(m)"
        )
        assert program_digest(parse_program(reordered)) == program_digest(
            jacobi_program()
        )

    def test_commutative_operand_swap_hashes_identically(self):
        swapped = JACOBI_SOURCE.replace(
            "V(i) = V(i) + A(i, j) * X(j)", "V(i) = X(j) * A(i, j) + V(i)"
        )
        assert swapped != JACOBI_SOURCE
        assert program_digest(parse_program(swapped)) == program_digest(
            jacobi_program()
        )

    def test_noncommutative_swap_hashes_apart(self):
        swapped = JACOBI_SOURCE.replace(
            "X(i) = X(i) + (B(i) - V(i)) / A(i, i)",
            "X(i) = X(i) + (V(i) - B(i)) / A(i, i)",
        )
        assert swapped != JACOBI_SOURCE
        assert program_digest(parse_program(swapped)) != program_digest(
            jacobi_program()
        )


class TestDistinctness:
    def test_distinct_programs_hash_apart(self):
        digests = {
            program_digest(p())
            for p in (jacobi_program, sor_program, gauss_program, matmul_program)
        }
        assert len(digests) == 4

    def test_structural_tweak_hashes_apart(self):
        tweaked = JACOBI_SOURCE.replace("DO j = 1, m", "DO j = 2, m")
        assert program_digest(parse_program(tweaked)) != program_digest(
            jacobi_program()
        )

    def test_strategy_is_part_of_the_key(self):
        p = sor_program()
        assert program_digest(p) != program_digest(p, "ring-pipeline")

    def test_sor_is_not_jacobi(self):
        # SOR's sweep carries a dependence Jacobi's does not; their
        # canonical forms must differ even though the arrays align.
        assert program_digest(parse_program(SOR_SOURCE)) != program_digest(
            jacobi_program()
        )


class TestSolveDigest:
    ENV = {"m": 64, "maxiter": 1}

    def digest(self, **kw):
        args = dict(
            program=jacobi_program(), nprocs=8, env=self.ENV, model=MODEL
        )
        args.update(kw)
        return solve_digest(**args)

    def test_machine_params_fold_into_solve_key(self):
        base = self.digest()
        assert base != self.digest(model=MachineModel(tf=1, tc=20))
        assert base != self.digest(model=MachineModel(tf=2, tc=10))
        assert base != self.digest(model=MachineModel(tf=1, tc=10, alpha=5))
        assert base != self.digest(model=MachineModel(tf=1, tc=10, overlap=True))

    def test_nprocs_and_env_fold_into_solve_key(self):
        base = self.digest()
        assert base != self.digest(nprocs=16)
        assert base != self.digest(env={"m": 128, "maxiter": 1})

    def test_program_digest_ignores_machine(self):
        p = jacobi_program()
        assert program_digest(p) == program_digest(p)  # and no machine arg exists

    def test_env_keys_translate_through_rename(self):
        mapping = dict(zip(JACOBI_NAMES, FRESH))
        twin = parse_program(rename_source(JACOBI_SOURCE, mapping))
        twin_env = {mapping["m"]: 64, mapping["maxiter"]: 1}
        assert solve_digest(twin, 8, twin_env, MODEL) == self.digest()

    def test_execute_flag_folds_into_solve_key(self):
        assert self.digest() != self.digest(execute=True)


class TestCanonicalFormShape:
    def test_rename_covers_all_declarations(self):
        for maker in (jacobi_program, sor_program, gauss_program, matmul_program):
            p = maker()
            form = canonicalize(p)
            declared = set(p.params) | set(p.scalars) | set(p.arrays)
            assert declared <= set(form.rename)

    def test_directives_and_alignments_perturb_the_digest(self):
        base = parse_program(JACOBI_SOURCE)
        with_directive = parse_program(
            JACOBI_SOURCE.replace(
                "ARRAY A(m, m), V(m), B(m), X(m)",
                "ARRAY A(m, m), V(m), B(m), X(m)\nDISTRIBUTE A(BLOCK, *)",
            )
        )
        assert program_digest(base) != program_digest(with_directive)

    def test_digest_is_hex_sha256(self):
        digest = program_digest(jacobi_program())
        assert re.fullmatch(r"[0-9a-f]{64}", digest)


# ---------------------------------------------------------------------------
# Digest soundness (ROADMAP 5a): metamorphic pairs
# ---------------------------------------------------------------------------
#
# A digest collision serves the wrong plan silently, and since ISSUE 16
# the service trusts a digest it derived from remembered *text*.  So:
# every rewrite the compiler cannot see must keep both digests, every
# mutation it could act on must change them — over random chains (the
# generator of tests/test_phase_tables_incremental.py) and the paper's
# four programs.

NPROCS = 8

PAPER = [
    (JACOBI_SOURCE, {"m": 64, "maxiter": 1}),
    (SOR_SOURCE, {"m": 64, "maxiter": 1}),
    (GAUSS_SOURCE, {"m": 48}),
    (MATMUL_SOURCE, {"n": 16}),
]

chains = st.lists(
    st.tuples(st.sampled_from(SUBSCRIPTS), st.booleans(), st.booleans()),
    min_size=1, max_size=5,
).map(lambda loops: (chain_source(loops), {"m": 64, "t": 1}))

#: ``(DSL text, env)`` of a program under test
subjects = st.one_of(st.sampled_from(PAPER), chains)

soundness = settings(max_examples=30, deadline=None)


def digests(program, env, *, strategy=None, nprocs=NPROCS, model=MODEL, execute=False):
    return (
        program_digest(program, strategy),
        solve_digest(program, nprocs, env, model, strategy, execute=execute),
    )


def loops_of(program):
    return [s for s in program.walk() if isinstance(s, DoLoop)]


def identifiers(program) -> list[str]:
    names = [*program.params, *program.scalars, *program.arrays]
    names += [loop.var for loop in loops_of(program)]
    return list(dict.fromkeys(names))


# -- IR rewriting -----------------------------------------------------------


def rebuild(expr, visit):
    """Copy of *expr*; ``visit(node)`` may return a replacement (which is
    not descended into) or None."""
    out = visit(expr)
    if out is not None:
        return out
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rebuild(expr.left, visit), rebuild(expr.right, visit))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, rebuild(expr.operand, visit))
    if isinstance(expr, Call):
        return Call(expr.name, tuple(rebuild(a, visit) for a in expr.args))
    return expr


def map_stmts(program, on_assign=lambda s: s, on_loop=lambda s: s):
    def stmt(s):
        if isinstance(s, Assign):
            return on_assign(s)
        s = on_loop(s)
        return replace(s, body=[stmt(c) for c in s.body])

    return replace(program, body=[stmt(s) for s in program.body])


def map_rhs(program, visit):
    return map_stmts(
        program, on_assign=lambda s: Assign(s.lhs, rebuild(s.rhs, visit), s.line)
    )


def is_site(expr) -> bool:
    """A binary node whose operand order is observable."""
    return isinstance(expr, BinOp) and expr.left != expr.right


def count_sites(program) -> int:
    seen = []
    map_rhs(program, lambda e: seen.append(e) if is_site(e) else None)
    return len(seen)


def at_site(program, n: int, fn):
    """Rewrite the *n*-th (pre-order) :func:`is_site` node with *fn*."""
    counter = itertools.count()

    def visit(expr):
        if is_site(expr) and next(counter) == n:
            return fn(expr)
        return None

    return map_rhs(program, visit)


def commuted(program, rng):
    """Swap the operands of a random subset of the ``+`` and ``*`` nodes."""

    def swap(expr):
        if not isinstance(expr, BinOp):
            return rebuild(expr, lambda e: swap(e) if e is not expr else None)
        left, right = swap(expr.left), swap(expr.right)
        if expr.op in "+*" and rng.random() < 0.5:
            left, right = right, left
        return BinOp(expr.op, left, right)

    return map_rhs(program, swap)


def redeclared(program, rng):
    """Same declarations, shuffled."""
    params, scalars = list(program.params), list(program.scalars)
    arrays = list(program.arrays.items())
    for seq in (params, scalars, arrays):
        rng.shuffle(seq)
    return replace(
        program, params=tuple(params), scalars=tuple(scalars), arrays=dict(arrays)
    )


def respaced(source: str, rng) -> str:
    """Same tokens, different whitespace and comments."""
    pad = lambda: rng.choice(["", " ", "  ", "\t"])  # noqa: E731
    lines = []
    for line in source.splitlines():
        if rng.random() < 0.3:
            lines.append(rng.choice(["", "   ", "! a remark", "{* a block\n   remark *}"]))
        if "{*" not in line:  # a comment of the original: leave its delimiters whole
            line = re.sub(r"[,=+*/()-]", lambda m: pad() + m.group(0) + pad(), line)
        tail = rng.choice(["", "  ", " ! trailing remark", " {* inline *}"])
        lines.append(pad() + line + tail)
    return "\n".join(lines) + "\n"


class TestRewritesTheCompilerCannotSeeKeepTheDigests:
    @soundness
    @given(subject=subjects, data=st.data())
    def test_rename(self, subject, data):
        source, env = subject
        program = parse_program(source)
        names = identifiers(program)
        fresh = data.draw(st.permutations([f"Z{i}q" for i in range(len(names))]))
        mapping = dict(zip(names, fresh))
        twin = parse_program(rename_source(source, mapping))
        twin_env = {mapping[k]: v for k, v in env.items()}
        assert digests(twin, twin_env) == digests(program, env)

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_declaration_reorder(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        twin = redeclared(program, rng)
        assert digests(twin, env) == digests(program, env)
        # and through the parser: the shuffled declaration lines as text
        assert digests(parse_program(program_to_text(twin)), env) == digests(program, env)

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_commuted_sums_and_products(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        assert digests(commuted(program, rng), env) == digests(program, env)

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_whitespace_and_comments(self, subject, rng):
        source, env = subject
        twin = parse_program(respaced(source, rng))
        assert digests(twin, env) == digests(parse_program(source), env)


def differ(a: tuple[str, str], b: tuple[str, str]) -> bool:
    """Both the program digest and the solve digest changed."""
    return a[0] != b[0] and a[1] != b[1]


class TestMutationsTheCompilerCouldActOnChangeTheDigests:
    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_swapped_operands_of_minus_or_divide(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        site = rng.randrange(count_sites(program))
        op = rng.choice("-/")
        # make the chosen node non-commutative (it may already be) ...
        base = at_site(program, site, lambda e: BinOp(op, e.left, e.right))
        # ... then swap its operands
        mutant = at_site(program, site, lambda e: BinOp(op, e.right, e.left))
        assert differ(digests(base, env), digests(mutant, env))

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_loop_bound_or_step(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        target = rng.randrange(len(loops_of(program)))
        change = rng.choice(["lb", "ub", "step"])
        counter = itertools.count()

        def mutate(loop):
            if next(counter) != target:
                return loop
            if change == "step":
                return replace(loop, step=loop.step + (1 if loop.step > 0 else -1))
            return replace(loop, **{change: getattr(loop, change) + 1})

        mutant = map_stmts(program, on_loop=mutate)
        assert differ(digests(program, env), digests(mutant, env))

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_array_extent(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        name = rng.choice(sorted(program.arrays))
        decl = program.arrays[name]
        dim = rng.randrange(decl.rank)
        extents = tuple(e + 1 if d == dim else e for d, e in enumerate(decl.extents))
        mutant = replace(program, arrays={**program.arrays, name: ArrayDecl(name, extents)})
        assert differ(digests(program, env), digests(mutant, env))

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_distribute_directive(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        name = rng.choice(sorted(program.arrays))
        specs = [rng.choice(["BLOCK", "CYCLIC", "*"]) for _ in range(program.arrays[name].rank)]
        base = replace(program, directives={name: tuple(specs)})
        dim = rng.randrange(len(specs))
        specs[dim] = rng.choice([s for s in ("BLOCK", "CYCLIC", "*") if s != specs[dim]])
        flipped = replace(program, directives={name: tuple(specs)})
        assert differ(digests(base, env), digests(flipped, env))
        assert differ(digests(base, env), digests(program, env))  # directive vs none

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_align_directive(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        src, tgt = rng.sample(sorted(program.arrays), 2)
        src_dim = rng.randrange(program.arrays[src].rank) + 1
        tgt_dim = rng.randrange(program.arrays[tgt].rank) + 1
        base = replace(program, alignments=(((src, src_dim), (tgt, tgt_dim)),))
        assert differ(digests(base, env), digests(program, env))  # constraint vs none
        if program.arrays[tgt].rank > 1:
            other = tgt_dim % program.arrays[tgt].rank + 1
            moved = replace(program, alignments=(((src, src_dim), (tgt, other)),))
            assert differ(digests(base, env), digests(moved, env))

    @soundness
    @given(subject=subjects, rng=st.randoms(use_true_random=False))
    def test_solve_context(self, subject, rng):
        source, env = subject
        program = parse_program(source)
        base = digests(program, env)
        assert differ(base, digests(program, env, strategy="ring-pipeline"))
        # the program digest covers codegen only: everything below moves
        # the solve digest and leaves it alone
        key = rng.choice(sorted(env))
        field = rng.choice([f.name for f in fields(MachineModel)])
        value = getattr(MODEL, field)
        contexts = [
            dict(nprocs=NPROCS * 2),
            dict(execute=True),
            dict(model=replace(MODEL, **{field: (not value) if field == "overlap" else value + 1})),
        ]
        for context in contexts:
            got = digests(program, env, **context)
            assert got[0] == base[0] and got[1] != base[1], context
        got = digests(program, {**env, key: env[key] + 1})
        assert got[0] == base[0] and got[1] != base[1]


# ---------------------------------------------------------------------------
# The source-text memo in front of the front ends (ISSUE 16)
# ---------------------------------------------------------------------------

ENV = {"m": 64, "maxiter": 1}

TWIN_MAP = dict(zip(JACOBI_NAMES, FRESH))

#: One program as three texts: ``(source, guest, env)``.
JACOBI_TEXTS = [
    (JACOBI_SOURCE, "dsl", ENV),
    (json.dumps(program_to_json(parse_program(JACOBI_SOURCE))), "json-ir", ENV),
    (rename_source(JACOBI_SOURCE, TWIN_MAP), "dsl", {TWIN_MAP[k]: v for k, v in ENV.items()}),
]


def answer(res) -> tuple:
    """What a served request must reproduce across tiers and processes."""
    return (
        res.digest, res.solve_key, res.rename,
        pickle.dumps(res.plan.generated), pickle.dumps(res.outcome),
    )


def serve_jacobi_texts(cache_dir, out=None):
    """A fresh disk-tier service over *cache_dir* serving
    :data:`JACOBI_TEXTS` — in this process, or (given a queue) as the
    body of a child one."""
    svc = CompileService(machine=MODEL, cache="disk", cache_dir=cache_dir)
    with spans.recording() as rec:
        served = [
            svc.compile(text, guest=guest, nprocs=NPROCS, env=env)
            for text, guest, env in JACOBI_TEXTS
        ]
    report = {
        "answers": [answer(res) for res in served],
        "hits": [res.cached and res.solve_cached for res in served],
        "service_stats": served[-1].service_stats,
        "stats": svc.stats.as_dict(),
        "spans": [s.detail for s in rec.spans],
    }
    if out is not None:
        out.put(report)
    return report


def form_files(cache_dir) -> list:
    return sorted(cache_dir.glob("form-*.pkl"))


def check_warm_report(report, cold):
    """*report* answered everything *cold* did without a front end."""
    n = len(JACOBI_TEXTS)
    assert report["answers"] == cold["answers"]
    assert all(report["hits"])
    assert report["service_stats"]["frontend_skips"] == n
    assert report["service_stats"]["memo_disk_hits"] == n
    assert "service/frontend" not in report["spans"]
    assert report["spans"].count("service/lookup") == 2 * n
    # memo traffic is not cache traffic: one program, two entries
    stats = report["stats"]
    assert (stats["misses"], stats["disk_hits"], stats["hits"]) == (0, 2, 2 * n)
    assert (stats["puts"], stats["corrupt"], stats["disk_faults"]) == (0, 0, 0)


class TestSourceTextMemo:
    def test_byte_identical_text_skips_the_front_end(self):
        svc = CompileService(machine=MODEL)
        cold = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        warm = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        assert warm.cached and warm.solve_cached
        assert (warm.digest, warm.solve_key) == (cold.digest, cold.solve_key)
        assert warm.rename == cold.rename
        assert warm.service_stats["frontend_skips"] == 1
        # a whitespace variant and an alpha-twin miss the memo, take the
        # full path, and still hit the plan cache
        spaced = svc.compile(JACOBI_SOURCE.replace(" = ", "  =  "), nprocs=NPROCS, env=ENV)
        mapping = dict(zip(JACOBI_NAMES, FRESH))
        twin = svc.compile(
            rename_source(JACOBI_SOURCE, mapping), nprocs=NPROCS,
            env={mapping[k]: v for k, v in ENV.items()},
        )
        for res in (spaced, twin):
            assert res.cached and res.solve_cached and res.digest == cold.digest
        assert twin.service_stats["frontend_skips"] == 1
        assert svc.stats.misses == 2  # the cold request's two keys, nothing since

    def test_same_text_under_two_guests_never_aliases(self):
        doc = json.dumps(program_to_json(parse_program(JACOBI_SOURCE)))
        svc = CompileService(machine=MODEL)
        served = svc.compile(doc, guest="json-ir")
        assert svc.compile(doc, guest="json-ir").service_stats["frontend_skips"] == 1
        # the memo knows this text — under another guest it is another text
        with pytest.raises(ReproError):
            svc.compile(doc, guest="dsl")
        with pytest.raises(ParseError, match=r"not JSON.*\(line 1, column 1\)"):
            svc.compile(JACOBI_SOURCE, guest="json-ir")
        # and the failures left nothing behind for the right guest to trip on
        assert svc.compile(JACOBI_SOURCE).digest == served.digest
        keys = {
            svc._text_key(CompileRequest(source=doc, guest=guest))
            for guest in ("dsl", "json-ir", "python-ast")
        }
        assert len(keys) == 3

    def test_a_text_that_fails_to_parse_is_never_memoised(self):
        broken = JACOBI_SOURCE.replace("DO j = 1, m", "DO j = 1 m")
        svc = CompileService(machine=MODEL)
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                svc.compile(broken)
            errors.append(info.value)
        first, second = errors
        assert first is not second
        assert (str(first), first.line, first.column) == (str(second), second.line, second.column)
        assert (first.line, first.column) == (7, 14)
        assert not svc._forms
        assert svc.compile(JACOBI_SOURCE).service_stats["frontend_skips"] == 0

    def test_evicted_plan_under_a_live_memo_entry_recompiles_bit_identically(self):
        svc = CompileService(machine=MODEL)
        cold = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        svc.cache.clear()  # both entries gone; the memo still knows the text
        again = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        assert not again.cached and not again.solve_cached
        assert again.service_stats["frontend_skips"] == 0  # it had to lower after all
        assert (again.digest, again.solve_key) == (cold.digest, cold.solve_key)
        assert pickle.dumps(again.plan.generated) == pickle.dumps(cold.plan.generated)
        assert pickle.dumps(again.plan.program) == pickle.dumps(cold.plan.program)
        assert pickle.dumps(again.outcome) == pickle.dumps(cold.outcome)
        assert again.rename == cold.rename
        # only the solve evicted: the plan hit needs no program, the
        # solve runs on the stored one
        svc.cache._mem.pop(cold.solve_key)
        partial = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        assert partial.cached and not partial.solve_cached
        assert pickle.dumps(partial.outcome) == pickle.dumps(cold.outcome)

    def test_memo_is_an_lru_bounded_by_cache_capacity(self):
        svc = CompileService(machine=MODEL, cache_capacity=2)
        texts = [JACOBI_SOURCE, SOR_SOURCE, MATMUL_SOURCE]
        for text in texts:
            svc.compile(text)
        assert len(svc._forms) == 2
        assert svc.compile(MATMUL_SOURCE).service_stats["frontend_skips"] == 1
        # the oldest text was forgotten (and its plan evicted with it)
        assert svc.compile(JACOBI_SOURCE).service_stats["frontend_skips"] == 1

    def test_non_str_sources_bypass_the_memo(self):
        from repro.api import loop_nest

        @loop_nest(params="m, maxiter", arrays="A(m, m), V(m), B(m), X(m)")
        def jacobi(m, maxiter, A, V, B, X):
            for k in range(1, maxiter + 1):
                for i in range(1, m + 1):
                    V[i] = 0.0
                    for j in range(1, m + 1):
                        V[i] = V[i] + A[i, j] * X[j]
                for i in range(1, m + 1):
                    X[i] = X[i] + (B[i] - V[i]) / A[i, i]

        svc = CompileService(machine=MODEL)
        sources = [
            (parse_program(JACOBI_SOURCE), "dsl"),
            (program_to_json(parse_program(JACOBI_SOURCE)), "json-ir"),
            (jacobi, "python-ast"),
        ]
        for source, guest in sources:
            svc.compile(source, guest=guest)
            again = svc.compile(source, guest=guest)
            assert again.cached and again.service_stats["frontend_skips"] == 0
        assert not svc._forms
        assert svc.compile(JACOBI_SOURCE).service_stats["frontend_skips"] == 0

    # -- the memo's disk tier: warm is a property of the directory (ISSUE 20)

    def test_a_fresh_service_over_a_warm_directory_never_parses(self, tmp_path):
        cold = serve_jacobi_texts(tmp_path)
        assert cold["service_stats"]["memo_disk_hits"] == 0
        assert cold["spans"].count("service/frontend") == len(JACOBI_TEXTS)
        assert len(form_files(tmp_path)) == len(JACOBI_TEXTS)
        assert not list(tmp_path.glob(".*.tmp"))
        check_warm_report(serve_jacobi_texts(tmp_path), cold)

    def test_so_does_a_fresh_interpreter(self, tmp_path):
        cold = serve_jacobi_texts(tmp_path)
        ctx = multiprocessing.get_context("spawn")
        out = ctx.Queue()
        child = ctx.Process(target=serve_jacobi_texts, args=(tmp_path, out))
        child.start()
        report = out.get(timeout=120)
        child.join(timeout=60)
        assert child.exitcode == 0
        check_warm_report(report, cold)

    def test_a_disk_recall_is_remembered_in_memory(self, tmp_path):
        CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(JACOBI_SOURCE)
        svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        svc.compile(JACOBI_SOURCE)
        for path in form_files(tmp_path):
            path.unlink()
        again = svc.compile(JACOBI_SOURCE)
        assert again.service_stats["frontend_skips"] == 2
        assert again.service_stats["memo_disk_hits"] == 1

    def test_a_recalled_form_whose_plan_is_gone_starts_over(self, tmp_path):
        first = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        cold = first.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        for key in (cold.digest, cold.solve_key):
            (tmp_path / f"{key}.pkl").unlink()
        svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        with spans.recording() as rec:
            again = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        assert not again.cached and not again.solve_cached
        assert again.service_stats["memo_disk_hits"] == 1
        assert again.service_stats["frontend_skips"] == 0
        assert [s.detail for s in rec.spans].count("service/frontend") == 1
        assert answer(again) == answer(cold)
        assert pickle.dumps(again.plan.program) == pickle.dumps(cold.plan.program)

    def test_a_text_that_fails_to_lower_leaves_nothing_on_disk(self, tmp_path):
        broken = JACOBI_SOURCE.replace("DO j = 1, m", "DO j = 1 m")
        errors = []
        for _ in range(2):  # a fresh service each time: only the directory could remember
            svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
            with pytest.raises(ParseError) as info:
                svc.compile(broken)
            errors.append(info.value)
            assert not list(tmp_path.glob("*.pkl")) and not svc._forms
        first, second = errors
        assert (str(first), first.line, first.column) == (str(second), second.line, second.column)
        assert (first.line, first.column) == (7, 14)

    def test_a_schema_bump_orphans_every_form(self, tmp_path, monkeypatch):
        cold = serve_jacobi_texts(tmp_path)
        files = sorted(tmp_path.glob("*.pkl"))
        for module in ("repro.service.compiler", "repro.service.normalize"):
            monkeypatch.setattr(f"{module}.IR_SCHEMA", "repro-ir/next")
        bumped = serve_jacobi_texts(tmp_path)
        assert bumped["service_stats"]["memo_disk_hits"] == 0
        assert bumped["service_stats"]["frontend_skips"] == 0
        assert bumped["hits"] == [False, True, True]
        assert not {a[0] for a in bumped["answers"]} & {a[0] for a in cold["answers"]}
        # orphaned, never corrupted: the old files sit untouched beside the new
        assert bumped["stats"]["corrupt"] == 0
        assert set(files) < set(tmp_path.glob("*.pkl"))
        assert len(form_files(tmp_path)) == 2 * len(JACOBI_TEXTS)
        svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        assert svc.cache.prune() == 2 * len(files)
        assert not list(tmp_path.glob("*.pkl"))

    @pytest.mark.parametrize("mode", ["memory", "off"])
    def test_without_a_disk_tier_nothing_is_written(self, tmp_path, monkeypatch, mode):
        monkeypatch.chdir(tmp_path)
        svc = CompileService(machine=MODEL, cache=mode, cache_dir=tmp_path)
        for _ in range(2):
            res = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        assert res.service_stats["memo_disk_hits"] == 0
        assert res.service_stats["frontend_skips"] == (mode == "memory")
        assert not list(tmp_path.iterdir())

    # -- digests remembered with the form ----------------------------------

    @soundness
    @given(data=st.data())
    def test_served_keys_are_the_digests_a_fresh_form_derives(self, data):
        # A random walk that changes one request input per step, so a
        # remembered key missing that input would be served stale.
        inputs = {
            "text": range(len(JACOBI_TEXTS)),  # original, json-ir, alpha-twin
            "strategy": [None, "data-parallel", "ring-pipeline"],
            "nprocs": [2, 4, 8],
            "m": [16, 32],
            "reordered": [False, True],  # env keys
            "numpy": [False, True],  # env values
            "execute": [False, True],
        }
        now = {name: data.draw(st.sampled_from(values)) for name, values in inputs.items()}
        svc = CompileService(machine=MODEL)
        for _ in range(data.draw(st.integers(2, 6))):
            text, guest, env = JACOBI_TEXTS[now["text"]]
            plain = dict(zip(env, (now["m"], 1)))  # the text's own names for m, maxiter
            items = list(plain.items())[::-1] if now["reordered"] else list(plain.items())
            env = {key: np.int64(value) if now["numpy"] else value for key, value in items}
            request = dict(guest=guest, strategy=now["strategy"], nprocs=now["nprocs"], execute=now["execute"])
            res = svc.compile(text, env=env, **request)
            fresh = canonicalize(lower(text, guest))
            assert res.digest == fresh.program_digest(now["strategy"])
            assert res.solve_key == fresh.solve_digest(
                now["nprocs"], plain, MODEL, now["strategy"], execute=now["execute"]
            )
            again = svc.compile(text, env=env, **request)  # from the memo
            assert again.service_stats["frontend_skips"] >= 1
            assert (again.digest, again.solve_key) == (res.digest, res.solve_key)
            assert again.cached and again.solve_cached
            name = data.draw(st.sampled_from(sorted(inputs)))
            now[name] = data.draw(st.sampled_from(inputs[name]))

    def test_a_reassigned_machine_is_never_served_the_old_solve(self):
        svc = CompileService(machine=MODEL)
        cold = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
        assert svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV).solve_cached
        fresh = canonicalize(parse_program(JACOBI_SOURCE))

        def serve(machine):
            svc.machine = machine
            res = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env=ENV)
            assert res.service_stats["frontend_skips"] >= 1  # the memo answered
            assert res.digest == cold.digest and res.cached  # codegen ignores the machine
            assert res.solve_key == fresh.solve_digest(NPROCS, ENV, machine)
            solved = cold.plan.solve(NPROCS, ENV, model=machine)
            assert (res.outcome.cost, res.outcome.result.segments) == (
                solved.cost, solved.result.segments
            )
            return res

        slower = serve(MachineModel(tf=1, tc=20))
        assert slower.solve_key != cold.solve_key and not slower.solve_cached
        # equal to MODEL (1 == 1.0) yet formatted apart in the key: a memo
        # keyed by equality would serve the first machine's key here
        floats = serve(MachineModel(tf=1.0, tc=10.0))
        assert floats.solve_key not in (cold.solve_key, slower.solve_key)
        assert not floats.solve_cached
        back = serve(MachineModel(tf=1, tc=10))  # a new object equal to MODEL
        assert back.solve_key == cold.solve_key and back.solve_cached

    def test_remembered_digests_never_reach_the_disk(self, tmp_path):
        svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        for nprocs in (2, 4):
            svc.compile(JACOBI_SOURCE, nprocs=nprocs, env=ENV)
        (memo,) = svc._forms.values()
        assert len(memo.digests) == 2
        (path,) = form_files(tmp_path)
        fresh = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        assert fresh._recall_form(path.stem[len("form-"):]).digests == {}
        # the file holds the form alone, as the front end derives it
        assert svc.cache.recall(path.stem[len("form-"):]) == canonicalize(parse_program(JACOBI_SOURCE))

    def test_a_memo_entry_bounds_its_digests(self):
        from repro.service.compiler import _DIGESTS_PER_FORM

        svc = CompileService(machine=MODEL)
        for m in range(16, 16 + _DIGESTS_PER_FORM + 1):
            res = svc.compile(JACOBI_SOURCE, nprocs=NPROCS, env={"m": m, "maxiter": 1})
            assert res.solve_key == solve_digest(
                parse_program(JACOBI_SOURCE), NPROCS, {"m": m, "maxiter": 1}, MODEL
            )
        (memo,) = svc._forms.values()
        assert len(memo.digests) == 1  # full at the last request: forgotten, then one

    def test_worker_threads_share_one_entry_soundly(self):
        # more threads than cores, more envs than an entry keeps, a short
        # switch interval: a torn or misfiled remembered key would show
        from repro.service.compiler import _DIGESTS_PER_FORM

        program = parse_program(JACOBI_SOURCE)
        envs = [{"m": m, "maxiter": 1} for m in range(16, 16 + _DIGESTS_PER_FORM + 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CompileService(machine=MODEL).start(workers=3) as svc:
                svc.compile(JACOBI_SOURCE)
                jobs = [svc.submit(JACOBI_SOURCE, nprocs=NPROCS, env=env) for env in envs * 3]
                served = [job.wait(timeout=120) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        for res, env in zip(served, envs * 3):
            assert res.solve_key == solve_digest(program, NPROCS, env, MODEL)

    @soundness
    @given(subject=chains, rng=st.randoms(use_true_random=False))
    def test_a_form_read_back_is_the_form_the_front_end_derives(self, subject, rng):
        source, _env = subject
        program = parse_program(source)
        target = rng.randrange(len(loops_of(program)))
        counter = itertools.count()
        mutant = program_to_text(map_stmts(
            program,
            on_loop=lambda loop: replace(loop, ub=loop.ub + 1) if next(counter) == target else loop,
        ))
        with tempfile.TemporaryDirectory() as cache_dir:
            writer = CompileService(machine=MODEL, cache="disk", cache_dir=cache_dir)
            req = CompileRequest(source=source)
            _, form = writer._front_end(req)
            writer._remember_form(writer._text_key(req), form)

            reader = CompileService(machine=MODEL, cache="disk", cache_dir=cache_dir)
            recalled = reader._recall_form(reader._text_key(req)).form
            assert recalled is not form and recalled == form  # text and rename
            assert recalled.program_digest() == program_digest(program)
            # a mutation the compiler could act on is another text: it
            # recalls nothing, and what its own front end derives differs
            mutated = CompileRequest(source=mutant)
            assert reader._recall_form(reader._text_key(mutated)) is None
            assert reader._front_end(mutated)[1] != form
            assert reader.stats.lookups == 0 == reader.stats.puts
