"""The ``repro.api`` facade: compile_program, Plan payloads, removals."""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.lang import jacobi_program, matmul_program
from repro.machine import MachineModel

MODEL = MachineModel(tf=1, tc=10)
ENV = {"m": 16, "maxiter": 3}


class TestCompileProgram:
    def test_compile_program_returns_plan(self):
        plan = api.compile_program(jacobi_program())
        assert isinstance(plan, api.Plan)
        assert plan.strategy == "data-parallel"
        assert "def " in plan.source

    def test_compile_program_accepts_source_text(self):
        from repro.lang import program_to_text

        plan = api.compile_program(program_to_text(jacobi_program()))
        assert plan.strategy == "data-parallel"

    def test_compile_alias_is_gone(self):
        # The deprecated alias (it shadowed the builtin) had its one
        # release; only Session.compile carries the name now.
        assert not hasattr(api, "compile")
        assert "compile" not in api.__all__

    def test_top_level_reexports(self):
        assert repro.compile_program is api.compile_program
        assert repro.Plan is api.Plan
        assert repro.Session is api.Session
        for name in ("compile_program", "Plan", "Session",
                     "CompileRequest", "CompileResult"):
            assert name in repro.__all__

    def test_strategy_is_keyword_only(self):
        with pytest.raises(TypeError):
            api.compile_program(jacobi_program(), "jacobi")  # noqa: too-many-args


class TestPlanRun:
    def test_run_converges_like_reference(self):
        plan = api.compile_program(jacobi_program())
        res = plan.run(4, ENV, model=MODEL)
        x = np.asarray(res.values[0])
        # All ranks agree on the solved vector.
        for rank in range(1, 4):
            assert np.allclose(np.asarray(res.values[rank]), x)

    def test_inputs_are_fabricated_at_the_declared_size(self):
        """The size and sweep count are the pattern's own parameters under
        env: a Jacobi over ``sz`` and a matmul over ``q`` ran 16-row systems
        whatever env said, and a missing sweep count ran 10 sweeps."""
        from repro.errors import ReproError
        from repro.lang.programs import JACOBI_SOURCE, MATMUL_SOURCE

        plan = api.compile_program(re.sub(r"\bm\b", "sz", JACOBI_SOURCE))
        assert len(plan.run(4, {"sz": 12, "maxiter": 2}, model=MODEL).value(0)) == 12
        with pytest.raises(ReproError, match="no value for 'sz'"):
            plan.run(4, {"m": 12, "maxiter": 2})
        with pytest.raises(ReproError, match="no value for 'maxiter'"):  # was 10 sweeps
            plan.run(4, {"sz": 12})
        matmul = api.compile_program(re.sub(r"\bn\b", "q", MATMUL_SOURCE))
        assert matmul.run(4, {"q": 6}, model=MODEL).value(0).shape == (6, 6)

    def test_engine_and_threaded_backends_agree(self):
        plan = api.compile_program(jacobi_program())
        a = plan.run(4, ENV, model=MODEL, seed=5)
        b = plan.run(4, ENV, model=MODEL, seed=5, backend="threaded")
        assert np.allclose(np.asarray(a.values[0]), np.asarray(b.values[0]))
        assert a.message_words == b.message_words

    def test_unknown_backend_rejected(self):
        from repro.errors import ReproError

        plan = api.compile_program(jacobi_program())
        with pytest.raises(ReproError, match="backend"):
            plan.run(4, ENV, backend="mpi")

    def test_machine_params_keyword_only(self):
        plan = api.compile_program(jacobi_program())
        with pytest.raises(TypeError):
            plan.run(4, ENV, MODEL)  # noqa: too-many-args

    def test_compile_and_run_one_call(self):
        res = api.compile_and_run(matmul_program(), 4, {"n": 8}, model=MODEL)
        assert res.makespan > 0


#: The three ways into the service, each reduced to the request it served.
ENTRIES = {
    "compile": lambda svc, source, **kw: svc.compile(source, **kw).request,
    "submit": lambda svc, source, **kw: svc.submit(source, **kw).request,
    "compile_batch": lambda svc, source, **kw: svc.compile_batch([source], **kw)[0].request,
}


class TestOneEntryContract:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_entry_builds_its_request_one_way(self, entry):
        from repro.errors import ReproError
        from repro.service import CompileService

        assert repro.Session is api.Session is CompileService
        assert [f.name for f in dataclasses.fields(CompileService)] == [
            "machine", "cache", "cache_capacity", "cache_dir", "workers", "deadline_s", "queue_limit",
        ]
        serve = ENTRIES[entry]
        req = api.CompileRequest(jacobi_program(), nprocs=4, env=ENV)
        with api.Session(machine=MODEL) as session:
            with pytest.raises(ReproError, match=rf"{entry}\(\) got a CompileRequest and also nprocs=8; set"):
                serve(session, req, nprocs=8)
            with pytest.raises(ReproError, match=r"also strategy='cannon'; set"):
                serve(session, req, env=ENV, strategy="cannon")
            assert serve(session, req, nprocs=4, env=dict(ENV), guest="dsl") is req
            built = serve(session, jacobi_program(), nprocs=4, env=ENV, label="built")
            assert (built.nprocs, built.env, built.label) == (4, ENV, "built")


class TestPublicBoundaryIsTyped:
    """A bad ``nprocs`` or ``env`` is a :class:`ReproError` where the
    facade first sees it — not a builtin error from inside the solve,
    and not a silently different machine (ISSUE 23)."""

    def test_cannon_refuses_a_processor_count_that_is_no_square(self):
        from repro.errors import ReproError

        plan = api.compile_program(matmul_program())
        with pytest.raises(ReproError, match=r"'cannon'.*perfect square, got 8"):
            plan.run(8, {"n": 12})  # used to run on 9 ranks
        assert len(plan.run(9, {"n": 12}).values) == 9

    def test_a_program_of_no_family_runs_on_a_ring_and_needs_its_inputs(self):
        """A sparse or redistribution listing has no row in the family table."""
        from repro.codegen.spmd import GeneratedProgram
        from repro.errors import ReproError
        from repro.service.plan import Plan

        source = "def main(p, inputs):\n    return p.rank + inputs['base']\n    yield\n"
        plan = Plan(jacobi_program(), GeneratedProgram(source, "main", "redistribution", pattern=()))
        assert plan.generated.env_keys() == ()
        with pytest.raises(ReproError, match="cannot build default inputs for strategy 'redistribution'"):
            plan.run(3, {})
        assert plan.run(3, {}, inputs={"base": 10}).values == [10, 11, 12]

    @pytest.mark.parametrize("nprocs", [2.5, "4", True, 0, -4])
    def test_run_refuses_a_non_integer_nprocs(self, nprocs):
        from repro.errors import ReproError

        plan = api.compile_program(jacobi_program())
        for call in (
            lambda: plan.run(nprocs, ENV),
            lambda: plan.solve(nprocs, ENV),
            lambda: plan.explain(nprocs, ENV),
            lambda: api.compile_and_run(jacobi_program(), nprocs, ENV),
            lambda: api.Session().compile(jacobi_program()).run(nprocs, ENV),
            lambda: api.Session().compile(jacobi_program(), nprocs=nprocs, env=ENV),
            lambda: api.CompileRequest(jacobi_program(), nprocs=nprocs, env=ENV),
        ):
            with pytest.raises(ReproError, match="nprocs must be a positive integer"):
                call()

    @pytest.mark.parametrize("bad", ["8", 8.0, True, None], ids=repr)
    def test_env_values_must_be_integers_and_the_error_names_the_key(self, bad):
        from repro.errors import ReproError

        env = {"m": bad, "maxiter": 1}
        plan = api.compile_program(jacobi_program())
        for call in (
            lambda: api.Session().compile(jacobi_program(), nprocs=4, env=env),
            lambda: api.CompileRequest(jacobi_program(), nprocs=4, env=env),
            lambda: plan.solve(4, env),
            lambda: plan.explain(4, env),
            lambda: plan.run(4, env),
            lambda: api.Session().compile(jacobi_program()).run(4, env),
        ):
            with pytest.raises(ReproError, match=r"env\['m'\] must be an integer"):
                call()
        with pytest.raises(ReproError, match="env must be a dict"):
            plan.solve(4, [("m", 8)])

    def test_env_keys_must_be_parameter_names(self):
        from repro.errors import ReproError

        # 1 and True hash alike but format apart in a solve key
        for key in (1, True, ("m",)):
            with pytest.raises(ReproError, match=r"env keys must be parameter names \(str\)"):
                api.CompileRequest(jacobi_program(), nprocs=4, env={"m": 8, key: 1})

    def test_a_request_with_keywords_that_differ_from_their_defaults_is_refused(self):
        from repro.errors import ReproError

        session = api.Session()
        req = api.CompileRequest(jacobi_program())
        with pytest.raises(
            ReproError,
            match=r"compile\(\) got a CompileRequest and also nprocs=4, env=\{'m': 16, 'maxiter': 3\}, "
                  r"execute=True; set them on the request",
        ):
            session.compile(req, nprocs=4, env=ENV, execute=True)
        with pytest.raises(ReproError, match=r"also strategy='ring-pipeline'; set"):
            session.compile(req, guest="dsl", strategy="ring-pipeline")
        # keywords equal to the request's fields are no clash
        served = session.compile(req, guest="dsl", label=None, execute=False)
        assert served.request is req and served.outcome is None
        # the batch keeps its per-item semantics: a request is served as it
        # is, a bare source takes the batch's keywords
        mine = api.CompileRequest(jacobi_program(), nprocs=4, env=ENV, label="mine")
        as_is, built = session.compile_batch([mine, jacobi_program()], nprocs=4, env=ENV)
        assert as_is.request is mine and built.request.label is None
        assert as_is.outcome is not None and built.outcome is not None

    def test_numpy_integers_share_the_plain_ints_cache_entry(self):
        session = api.Session()
        plain = session.compile(jacobi_program(), nprocs=4, env={"m": 8, "maxiter": 1})
        numpy = session.compile(
            jacobi_program(), nprocs=np.int64(4), env={"m": np.int64(8), "maxiter": np.int32(1)}
        )
        assert numpy.solve_key == plain.solve_key and numpy.solve_cached
        assert numpy.request.env == {"m": 8, "maxiter": 1}
        assert all(type(v) is int for v in (numpy.request.nprocs, *numpy.request.env.values()))
        assert numpy.run().makespan == plain.run().makespan


class TestPlanExplainAndSolve:
    def test_explain_without_solve(self):
        explanation = api.compile_program(jacobi_program()).explain()
        assert isinstance(explanation, api.Explanation)
        assert "strategy: data-parallel" in str(explanation)
        assert explanation.nprocs is None

    def test_explain_with_dp(self):
        explanation = api.compile_program(jacobi_program()).explain(
            nprocs=16, env={"m": 256, "maxiter": 1}, model=MODEL
        )
        # Typed fields...
        assert explanation.total_cost == pytest.approx(10640)
        assert any(tr.label == "loop[X]" for tr in explanation.transitions)
        assert all(seg.grid[0] * seg.grid[1] == 16 for seg in explanation.segments)
        # ...and the rendered report still reads like the old string.
        text = str(explanation)
        assert "total cost 10640" in text
        assert "loop[X]" in text
        assert "total cost 10640" in explanation  # __contains__ delegates

    def test_solve_returns_outcome_and_unpacks(self):
        plan = api.compile_program(jacobi_program())
        outcome = plan.solve(4, {"m": 64, "maxiter": 1}, model=MODEL)
        assert isinstance(outcome, api.SolveOutcome)
        assert outcome.cost > 0
        tables, result = outcome  # legacy tuple unpacking
        assert result is outcome.result and tables is outcome.tables

    def test_solve_execute_mode(self):
        plan = api.compile_program(jacobi_program())
        tables, result, validation = plan.solve(
            4, {"m": 64, "maxiter": 1}, model=MODEL,
            execute=True, backends=("engine",),
        )
        assert validation.ok


class TestRemovedEntryPoints:
    """The PR-2 deprecation shims are gone, not just quiet."""

    @pytest.mark.parametrize(
        "name",
        ["compile_and_run", "solve_program_distribution",
         "generate_spmd", "run_spmd", "compile"],
    )
    def test_top_level_name_removed(self, name):
        assert not hasattr(repro, name)
        assert name not in repro.__all__

    def test_submodule_originals_do_not_warn(self):
        from repro.codegen import generate_spmd
        from repro.dp import solve_program_distribution

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            generate_spmd(jacobi_program())
            solve_program_distribution(
                jacobi_program(), 4, {"m": 16, "maxiter": 1}, MODEL
            )

    def test_repro_importable_with_warnings_as_errors(self):
        """The CI leg: importing the package raises no deprecations."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro, repro.api, repro.service"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_source_references_removed_names(self):
        """Sweep src/ + examples/ for imports of the removed top-level
        names (the in-repo half of the CI deprecated-import gate)."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parents[1]
        removed = re.compile(
            r"from\s+repro\s+import\s+[^\n]*\b"
            r"(compile_and_run|solve_program_distribution|generate_spmd|"
            r"run_spmd|compile\b(?!_program))"
            r"|repro\.(compile_and_run|solve_program_distribution"
            r"|generate_spmd|run_spmd|compile)\s*\("
        )
        offenders = []
        for base in ("src", "examples", "benchmarks"):
            for path in (root / base).rglob("*.py"):
                if removed.search(path.read_text()):
                    offenders.append(str(path.relative_to(root)))
        assert not offenders, f"deprecated entry points referenced in: {offenders}"
