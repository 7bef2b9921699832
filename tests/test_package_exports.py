"""Source-sweep guards: no dead public names, no kernel twins, the one FIFO
pairing pass, the one Table 1 / rule table, the one machine core under
two drivers, the one run registry / mode table / emitter of the tools and
the template recognizers / one family table of the code generator.

The shim check keeps removed names out; this is the dual.  Every public
top-level class and function of a package's modules is reached from a
root or used by a test (the map ``tests/reachability.py`` writes to
docs/REACHABILITY.md), a package root re-exports only what a root or a
``src`` module imports through it, and every ``__all__`` entry resolves.
The second half keeps removed kernel and emitter copies from growing
back.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

from tests.reachability import MAP, analyse, public, reexports, render

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages whose __all__ is swept against their modules' public names.
SWEPT = ("distribution", "pipeline", "sparse", "kernels", "costmodel")

#: Every package of ``src/repro``: the top level, then each sub-package.
PACKAGES = ("repro", *sorted(p.name for p in SRC.iterdir() if (p / "__init__.py").exists()))


@pytest.mark.parametrize("package", SWEPT)
def test_all_entries_resolve(package):
    pkg = importlib.import_module(f"repro.{package}")
    for name in pkg.__all__:
        assert getattr(pkg, name, None) is not None, (
            f"repro.{package}.__all__ lists {name!r} but it does not resolve"
        )


@pytest.mark.parametrize("package", PACKAGES)
def test_no_dead_public_names(package):
    pkg = package if package == "repro" else f"repro.{package}"
    graph, reached, by_test, _ = analyse()
    tested = set().union(*by_test.values())
    dead = [
        f"{mod}.{name}"
        for mod in graph.trees
        if mod.rpartition(".")[0] == pkg and mod not in graph.packages
        for name in public(graph, mod)
        if (mod, name) not in reached and (mod, name) not in tested
    ]
    assert not dead, f"public names no root and no test reaches: {dead}"
    bound, used = reexports(pkg)
    assert not bound - used, (
        f"{pkg} re-exports names nothing imports through it: {sorted(bound - used)}"
    )


def test_reachability_map_is_current():
    text, problems = render()
    assert not problems, problems
    assert MAP.read_text() == text, "run python -m tests.reachability --write"


def test_sparse_facade_covers_subsystem():
    import repro.sparse as sparse

    for name in (
        "CSRPattern", "CSRMatrix", "SparsePlacement", "CommSchedule",
        "build_comm_schedule", "cached_comm_schedule", "spmv_parallel",
        "sparse_cg_parallel", "spmv_reference",
    ):
        assert name in sparse.__all__
        assert getattr(sparse, name) is not None
    assert "CommSchedule" in dir(sparse)


# -- policies, not twins (ISSUE 14) ----------------------------------------
#
# One body per algorithm lives with the algorithm (jacobi.py, sor.py,
# cg.py); overlap, reliable transport and checkpointing are a transport
# and a hook pair handed to it.  A policy module that grows a
# ``.compute(`` call or an ``@`` product has started copying a kernel
# body again.

RING_SOR_ENTRY_POINTS = (
    "jacobi_ring_blocking", "jacobi_ring_overlap", "sor_pipelined_overlap",
)


def _numerics(node: ast.AST) -> list[int]:
    """Lines under *node* that charge flops or multiply matrices."""
    lines = []
    for sub in ast.walk(node):
        charges = (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "compute"
        )
        product = isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(
            sub.op, ast.MatMult
        )
        if charges or product:
            lines.append(sub.lineno)
    return sorted(lines)


def test_resilient_module_is_policy_only():
    tree = ast.parse((SRC / "kernels" / "resilient.py").read_text())
    assert _numerics(tree) == [], (
        "kernels/resilient.py holds the checkpoint protocol and thin entry "
        "points; numerics live with the algorithm"
    )


def test_ring_and_sor_overlap_entry_points_are_thin():
    tree = ast.parse((SRC / "kernels" / "overlap.py").read_text())
    found = {
        node.name: _numerics(node)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in RING_SOR_ENTRY_POINTS
    }
    assert found == {name: [] for name in RING_SOR_ENTRY_POINTS}


@pytest.mark.parametrize(
    "helper", ("_offset_of", "_count_ops", "_affine_to_py", "_scan_rhs", "_compile_tree")
)
def test_stencil_helper_is_defined_once(helper):
    homes = [
        path.name
        for path in sorted((SRC / "codegen").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == helper
    ]
    assert homes == ["stencil.py"]


# -- one trace index (ISSUE 15) ---------------------------------------------
# The FIFO (send, recv) pairing is computed by the trace's index and read
# from there by the exporter, the critical-path walker and the
# diagnostics; a second call site would be a consumer matching for itself.


def test_fifo_pairing_loop_has_one_caller_in_src():
    callers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "_fifo_pairs"
    ]
    assert len(callers) == 1 and callers[0].startswith("machine/trace.py:"), callers


def test_match_messages_only_reads_the_index():
    tree = ast.parse((SRC / "machine" / "export.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "match_messages"]
    assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(fn))


# -- one Table 1, one rule table (ISSUE 18) -----------------------------------
# A primitive's name is written once, in its costmodel/primitives.py row;
# everything that keys, tags or compares by it reads the row.  (Formula
# prose such as ``f"{n} x Shift({m})"`` in a cost-term description is text
# for readers, like a docstring, and is not an identifier use.)  And the
# runtime lowers the planner's classification — it never compares two
# placements' ``dim_map`` / ``kinds`` to classify for itself.

TABLE1_SCOPE = (
    *sorted((SRC / "costmodel").glob("*.py")),
    *sorted((SRC / "distribution").glob("*.py")),
    *sorted((SRC / "dp").glob("*.py")),
    SRC / "codegen" / "redist.py",
)


def _docstrings(tree: ast.AST) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_primitive_names_are_literals_only_in_their_rows():
    from repro.costmodel.primitives import PRIMITIVES

    uses = []
    for path in TABLE1_SCOPE:
        tree = ast.parse(path.read_text())
        skip = _docstrings(tree)
        uses += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and id(node) not in skip
            and node.value in PRIMITIVES
        ]
    assert len(uses) == len(PRIMITIVES), uses
    assert all(use.startswith("costmodel/primitives.py:") for use in uses), uses


def test_runtime_does_not_classify_placement_changes():
    tree = ast.parse((SRC / "distribution" / "runtime.py").read_text())
    compared = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and sum(
            isinstance(sub, ast.Attribute) and sub.attr in ("dim_map", "kinds")
            for side in (node.left, *node.comparators)
            for sub in ast.walk(side)
        ) >= 2
    ]
    assert compared == []
    callers = sorted(
        f"{path.relative_to(SRC)}:{fn.name}"
        for path in sorted(SRC.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "change_rule"
    )
    assert callers == [
        "distribution/redistribution.py:placement_change_terms",
        "distribution/runtime.py:_literal_ops",
    ]


# -- one machine core, two drivers (ISSUE 19) ---------------------------------
# The message store, the park / wake / stall rules and the per-run state
# are written once, in machine/engine.py; machine/threaded.py is a lock
# and a worker loop around them.  A second ``def`` of any of these names,
# a queue access or a ``min()`` over deadlines in the threaded driver is
# the lock-based mirror growing back.

CORE_RULES = (
    "_stall_step", "_wake_crashed_nb", "_deadlock", "_unpark",
    "_park", "_park_nb", "try_pop", "try_pop_by", "peek_available",
    "next_attempt", "_reset_run_state",
)


def test_machine_core_rules_are_defined_once():
    homes: dict[str, list[str]] = {name: [] for name in CORE_RULES}
    for path in sorted((SRC / "machine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in homes:
                homes[node.name].append(path.name)
    assert homes == {name: ["engine.py"] for name in CORE_RULES}


def _machine_names(filename: str = "*.py") -> set[str]:
    """Every identifier and attribute name in ``machine/<filename>``."""
    return {
        getattr(node, "attr", getattr(node, "id", None))
        for path in (SRC / "machine").glob(filename)
        for node in ast.walk(ast.parse(path.read_text()))
    }


def test_threaded_driver_locks_at_most_three_core_rules():
    """A timed resume asks one question (``try_pop_by``) under one lock
    acquisition; a fourth locked row is the two-question protocol back."""
    tree = ast.parse((SRC / "machine" / "threaded.py").read_text())
    locked = [
        node.args[0].attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_locked"
    ]
    assert sorted(locked) == ["peek_available", "try_pop", "try_pop_by"]
    assert set(locked) <= set(CORE_RULES)


def test_posted_path_validates_endpoints_through_the_procs_cache():
    """``isend`` / ``irecv`` go through ``Proc._endpoint`` (validate once
    per ``(peer, tag)``), never straight to the uncached check."""
    assert "_check_channel" not in _machine_names("nonblocking.py")
    assert "_endpoint" in _machine_names("nonblocking.py")


def test_deadline_heap_carries_no_generation_counter():
    """A heap entry is live iff ``timed`` maps its rank to its deadline."""
    assert "_gen" not in _machine_names()


def test_threaded_driver_keeps_no_store_and_scans_no_deadlines():
    names = _machine_names("threaded.py")
    assert "_queues" not in names
    assert "min" not in names


def test_backend_names_map_to_engines_in_one_module():
    homes = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "threaded" for k in node.keys)
    ]
    assert homes == ["machine/threaded.py"]


# -- one disk writer (ISSUE 20) -----------------------------------------------
# Everything the cache directory holds — plans, solves, schedules, the
# source-text memo's forms — is written, sealed, checked and locked by
# service/cache.py.  A call to one of these anywhere else is a tenant
# growing a private writer, file format or lock.

DISK_PRIMITIVES = ("_write_atomic", "_seal", "_unseal", "flock")


def test_disk_tier_primitives_are_called_from_the_cache_module_only():
    callers = {
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) in DISK_PRIMITIVES
    }
    assert callers == {"service/cache.py"}


# -- one run registry, one mode table, one emitter (ISSUE 23) -----------------
# Under tools/ a file is written by report.write_artifact and nowhere else,
# and a reference run's inputs and fault plan are built in tools/runs.py and
# nowhere else.  A second site is a mode (or the bench runner) restating
# what the registry or the emitter already says.


def _tools_calls(names: tuple[str, ...]) -> set[str]:
    """``file:top-level definition`` of every call under tools/ to one of *names*."""
    return {
        f"{path.name}:{getattr(top, 'name', '<module>')}"
        for path in sorted((SRC / "tools").glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) in names
    }


def test_tools_write_files_through_the_emitter_only():
    assert _tools_calls(("dumps", "mkdir", "write_text", "write_bytes", "open")) == {
        "report.py:write_artifact"
    }
    source = (SRC / "tools" / "report.py").read_text()
    assert source.count("json.dumps") == 1


def test_reference_runs_are_built_in_the_registry_only():
    sites = _tools_calls(("FaultPlan", "make_spd_system", "random_spd_csr", "default_rng"))
    assert sites and all(site.startswith("runs.py:") for site in sites), sites


def test_each_named_run_is_written_once():
    root = SRC.parent.parent
    files = [
        *SRC.rglob("*.py"), *(root / "benchmarks").glob("*.py"), *(root / "tests").glob("*.py")
    ]
    needle = "delay_prob=" + "0.15"  # the chaos plan (split: this file is swept too)
    chaos = [str(f.relative_to(root)) for f in files if needle in f.read_text()]
    assert chaos == ["src/repro/tools/runs.py"]
    fig5 = [
        str(f.relative_to(root)) for f in SRC.rglob("*.py")
        if "sor_pipelined, Ring(4)" in f.read_text()
    ]
    assert fig5 == ["src/repro/tools/runs.py"]


def test_report_main_dispatches_through_the_mode_table():
    tree = ast.parse((SRC / "tools" / "report.py").read_text())
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    branches = [n for n in ast.walk(main) if isinstance(n, ast.If)]
    assert len(branches) == 1  # the unknown-target exit; no per-mode ``if ns.…``
    assert not any(
        isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "ns"
        and n.attr not in ("out", "outdir")
        for n in ast.walk(main)
    )


# -- listings are the recognizers, one family table (ISSUE 24) ----------------
# codegen/patterns.py compares canonical bodies with the paper's listings; a
# node class imported there is a hand-written structural check growing back.
# What follows from a program's family is read off its codegen/families.py
# row, never re-derived from the pattern's class.

PATTERN_CLASSES = {"IterativeSolvePattern", "MatmulPattern", "GaussPattern"}


def _imports(tree: ast.AST) -> dict[str, set[str]]:
    """module -> names imported from it, anywhere in *tree* (lazy imports too)."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.setdefault(node.module or "", set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, set())
    return found


def test_patterns_module_sees_no_ir_node_but_program():
    tree = ast.parse((SRC / "codegen" / "patterns.py").read_text())
    imports = _imports(tree)
    assert imports.get("repro.lang.ast") == {"Program"}
    assert "repro.lang.affine" not in imports and "repro.lang" not in imports
    assert "isinstance" not in {getattr(n, "id", None) for n in ast.walk(tree)}


def test_no_dispatch_on_a_pattern_class_in_src():
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "isinstance"
        and PATTERN_CLASSES & {getattr(n, "id", getattr(n, "attr", "")) for n in ast.walk(node.args[1])}
    ]
    assert sites == []


def test_codegen_imports_nothing_from_the_service():
    importers = {
        path.name: sorted(m for m in _imports(ast.parse(path.read_text())) if m.startswith("repro.service"))
        for path in sorted((SRC / "codegen").glob("*.py"))
    }
    assert importers == {name: [] for name in importers}


def test_every_listing_is_matched_by_its_own_family_row_only():
    from repro.codegen.families import FAMILIES
    from repro.codegen.patterns import body_of
    from repro.lang import parse_program

    listings = [(row.name, src, proto) for row in FAMILIES.values() for src, proto in row.templates.items()]
    assert sorted({name for name, _, _ in listings}) == ["gauss", "jacobi", "matmul", "sor"]
    # 1 jacobi + 3 sor, each also with ``m`` sweeps; matmul and ``B x B``; gauss
    assert len(listings) == len({src for _, src, _ in listings}) == 11
    for name, source, proto in listings:
        program = parse_program(source)
        body = body_of(program)
        matched = {row.name: row.match(program, body) for row in FAMILIES.values()}
        assert {k: v for k, v in matched.items() if v is not None} == {name: proto}
        assert proto.kind == name
