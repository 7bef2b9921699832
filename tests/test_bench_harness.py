"""The bench harness (ISSUE 5): records, drift oracle, regression gate.

Covers the tentpole and its satellites end to end without spawning the
full pytest-under-pytest benchmark run:

* ``Metrics.as_dict``/``from_dict`` is an exact JSON-round-trippable
  inverse pair with deterministic key order;
* the compiler span recorder and its Chrome-trace lane;
* the :mod:`repro.tools.benchlib` record schema, the model-drift oracle
  (a deliberately out-of-band fixture must fire, by band name) and the
  regression gate (an injected 20% makespan regression must fail, by
  metric name);
* the :mod:`repro.tools.bench` CLI against synthetic records files;
* a hypothesis sweep of random placements/kernels asserting the
  measured/analytic ratio stays inside its registered band on both
  engines.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.costmodel import CommCosts, jacobi_dp_time
from repro.costmodel.bands import BANDS, get_band
from repro.distribution import (
    ArrayPlacement,
    Kind,
    lower_placement_delta,
    pack_section,
    placement_change_plan,
    redistribute,
)
from repro.errors import CostModelError
from repro.kernels import jacobi_rowdist, make_spd_system
from repro.machine import Grid2D, MachineModel, Ring, run_spmd
from repro.machine.export import COMPILER_TID, chrome_trace_json
from repro.machine.metrics import Metrics
from repro.machine.threaded import run_spmd_threaded
from repro.tools import bench, benchlib
from repro.util.spans import SpanRecorder, current_recorder, recording, span, spanned

MODEL = MachineModel(tf=1, tc=10)
RUNNERS = {"engine": run_spmd, "threaded": run_spmd_threaded}
REPO = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- metrics
def _metrics_from_run() -> Metrics:
    A, b, _ = make_spd_system(32, seed=5)
    res = run_spmd(jacobi_rowdist, Ring(4), MODEL, args=(A, b, np.zeros(32), 2))
    return res.metrics


class TestMetricsRoundTrip:
    def test_as_dict_json_round_trip_is_exact(self):
        m = _metrics_from_run()
        d = m.as_dict()
        wire = json.loads(json.dumps(d))
        rebuilt = Metrics.from_dict(wire)
        assert rebuilt.as_dict() == d

    def test_key_order_deterministic(self):
        m = _metrics_from_run()
        a, b = json.dumps(m.as_dict()), json.dumps(m.as_dict())
        assert a == b
        d = m.as_dict()
        assert list(d["by_kind"]) == sorted(d["by_kind"])
        tags = [int(k) for k in d["by_tag"]]
        assert tags == sorted(tags)
        assert list(d["by_collective"]) == sorted(d["by_collective"])

    def test_from_dict_preserves_totals(self):
        m = _metrics_from_run()
        rebuilt = Metrics.from_dict(m.as_dict())
        assert rebuilt.message_count == m.message_count
        assert rebuilt.message_words == m.message_words


# ------------------------------------------------------------------ spans
class _ScriptedClock(SpanRecorder):
    """A recorder whose clock the test advances by hand."""

    t = 0.0

    def now(self) -> float:
        return self.t


#: A span program: ``("instant", ticks)`` or ``("span", children)``.
_programs = st.recursive(
    st.tuples(st.just("instant"), st.booleans()),
    lambda inner: st.tuples(st.just("span"), st.lists(inner, max_size=4)),
    max_leaves=12,
)


class TestSpans:
    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(_programs, max_size=5))
    def test_depth_derived_from_containment_matches_the_recorded_nesting(
        self, program
    ):
        # The recorder stores no depth; as_dicts derives it from time
        # containment.  Reference: the entry-time nesting counter the
        # recorder used to keep.  The clock ticks on every span enter
        # and exit; an instant may share its timestamp with whatever
        # came just before it (recording order breaks the tie).
        rec = _ScriptedClock()
        expected: dict[str, int] = {}

        def run(ops, depth):
            for op, arg in ops:
                name = f"op{len(expected)}"
                expected[name] = depth
                if op == "instant":
                    rec.t += arg
                    rec.instant(name)
                    continue
                rec.t += 1
                with rec.span(name):
                    run(arg, depth + 1)
                    rec.t += 1

        run(program, 0)
        rows = rec.as_dicts()
        assert {r["name"]: r["depth"] for r in rows} == expected
        assert [r["start"] for r in rows] == sorted(r["start"] for r in rows)

    def test_nested_spans_record_depth_and_totals(self):
        with recording() as rec:
            with span("dp/tables"):
                with span("dp/solve"):
                    pass
            with span("dp/solve"):
                pass
        rows = rec.as_dicts()
        assert [r["name"] for r in rows] == ["dp/tables", "dp/solve", "dp/solve"]
        assert rows[0]["depth"] == 0 and rows[1]["depth"] == 1
        assert set(rec.totals()) == {"dp/tables", "dp/solve"}
        assert rec.wall_seconds >= rec.totals()["dp/tables"]

    def test_span_is_noop_without_recorder(self):
        assert current_recorder() is None
        with span("anything"):  # must not raise or record
            pass

    def test_spanned_decorator(self):
        @spanned("codegen/emit")
        def emit():
            return 7

        with recording() as rec:
            assert emit() == 7
        assert [s.detail for s in rec.spans] == ["codegen/emit"]
        assert emit() == 7  # and still a no-op outside recording

    def test_compiler_lane_in_chrome_trace(self):
        with recording() as rec:
            with span("dp/tables"):
                pass
        doc = chrome_trace_json([], spans=rec.spans)
        events = doc["traceEvents"]
        lane = [e for e in events if e.get("tid") == COMPILER_TID]
        names = {e["name"] for e in lane}
        assert "dp/tables" in names
        complete = next(e for e in lane if e.get("ph") == "X")
        assert complete["dur"] >= 0 and complete["args"]["clock"] == "wall"

    def test_recorder_isolated_per_context(self):
        outer = SpanRecorder()
        with outer.span("a"):
            pass
        with recording() as rec:
            assert current_recorder() is rec
        assert current_recorder() is None
        assert len(outer.spans) == 1


# --------------------------------------------------------------- benchlib
class TestBenchResult:
    def test_unknown_band_fails_fast(self):
        with pytest.raises(CostModelError, match="registered"):
            benchlib.BenchResult("b", "k", band="no-such-band")

    def test_metrics_object_accepted_and_totals_lifted(self):
        m = _metrics_from_run()
        r = benchlib.BenchResult("b", "k", metrics=m)
        assert isinstance(r.metrics, dict)
        assert r.message_count == m.message_count
        assert r.message_words == m.message_words

    def test_dict_round_trip(self):
        r = benchlib.BenchResult(
            "x8", "case", measured=120.0, analytic=100.0, band="redist-words",
            message_words=120, extra={"z": 1, "a": 2},
        )
        d = json.loads(json.dumps(r.as_dict()))
        back = benchlib.BenchResult.from_dict(d)
        assert back.key == r.key and back.ratio == pytest.approx(1.2)
        assert d["ratio"] == pytest.approx(1.2)
        assert list(d["extra"]) == ["a", "z"]

    def test_ratio_defaults_to_makespan(self):
        r = benchlib.BenchResult("b", "k", makespan=150.0, analytic=100.0)
        assert r.ratio == pytest.approx(1.5)
        assert benchlib.BenchResult("b", "k", makespan=1.0).ratio is None


class TestDriftOracle:
    def test_out_of_band_fixture_fires_with_band_name(self):
        """The deliberate out-of-band fixture: ratio 5x on redist-words."""
        bad = benchlib.BenchResult(
            "x8", "broken", measured=500.0, analytic=100.0, band="redist-words"
        )
        checked, failures = benchlib.check_drift([bad])
        assert checked == 1 and len(failures) == 1
        assert "redist-words" in failures[0] and "x8/broken" in failures[0]

    def test_in_band_record_passes(self):
        ok = benchlib.BenchResult(
            "x8", "fine", measured=150.0, analytic=100.0, band="redist-words"
        )
        assert benchlib.check_drift([ok]) == (1, [])

    def test_banded_record_without_pair_fails(self):
        r = benchlib.BenchResult("b", "k", band="redist-words")
        _, failures = benchlib.check_drift([r])
        assert failures and "no" in failures[0]

    def test_every_registered_band_is_well_formed(self):
        for name, band in BANDS.items():
            assert band.name == name
            # Point bands (lower == upper) pin exact invariants, e.g.
            # compile-hit-rate's "warm pass hits on every lookup".
            assert 0 <= band.lower <= band.upper
            assert band.rationale
            assert get_band(name) is band


class TestRegressionGate:
    def _baseline(self):
        good = benchlib.BenchResult(
            "fig5", "sor", makespan=218.0, message_words=112, message_count=14
        )
        return [good], benchlib.baseline_from_results([good])

    def test_injected_20pct_makespan_regression_fails_by_name(self):
        _, baseline = self._baseline()
        regressed = benchlib.BenchResult(
            "fig5", "sor", makespan=218.0 * 1.2, message_words=112
        )
        failures = benchlib.compare_to_baseline([regressed], baseline)
        assert len(failures) == 1
        assert "fig5/sor" in failures[0] and "makespan" in failures[0]
        assert "+20.0%" in failures[0]

    def test_word_count_regression_fails(self):
        _, baseline = self._baseline()
        chatty = benchlib.BenchResult("fig5", "sor", makespan=218.0, message_words=300)
        failures = benchlib.compare_to_baseline([chatty], baseline)
        assert failures and "message_words" in failures[0]

    def test_improvement_and_within_tolerance_pass(self):
        results, baseline = self._baseline()
        faster = benchlib.BenchResult("fig5", "sor", makespan=100.0, message_words=112)
        assert benchlib.compare_to_baseline([faster], baseline) == []
        close = benchlib.BenchResult("fig5", "sor", makespan=218.0 * 1.04,
                                     message_words=112)
        assert benchlib.compare_to_baseline([close], baseline) == []
        assert benchlib.compare_to_baseline(results, baseline) == []

    def test_require_all_flags_missing_records(self):
        _, baseline = self._baseline()
        failures = benchlib.compare_to_baseline([], baseline, require_all=True)
        assert failures == ["fig5/sor: present in baseline but produced no record"]
        assert benchlib.compare_to_baseline([], baseline) == []

    def test_schema_mismatch_rejected(self):
        failures = benchlib.compare_to_baseline([], {"schema": "other/9"})
        assert failures and "schema" in failures[0]

    def test_update_preserves_unselected_entries(self):
        _, baseline = self._baseline()
        new = benchlib.BenchResult("x4", "cannon-q2", makespan=5.0)
        merged = benchlib.baseline_from_results([new], previous=baseline)
        assert set(merged["entries"]) == {"fig5/sor", "x4/cannon-q2"}


class TestRecordsFile:
    def test_write_read_round_trip(self, tmp_path):
        rows = [benchlib.BenchResult("b", "k", makespan=1.0)]
        path = benchlib.write_records(tmp_path / "r.json", rows)
        back = benchlib.read_records(path)
        assert len(back) == 1 and back[0].key == "b/k"

    def test_schema_checked_on_read(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "nope", "records": []}))
        with pytest.raises(ValueError, match="schema"):
            benchlib.read_records(p)

    def test_json_artifact_helper(self, tmp_path):
        path = benchlib.write_json_artifact(tmp_path, "t1", {"x": 1})
        doc = json.loads(path.read_text())
        assert doc["schema"] == benchlib.SCHEMA
        assert doc["artifact"] == "t1" and doc["x"] == 1


# -------------------------------------------------------------- bench CLI
class TestBenchRunner:
    def test_discover_only_patterns(self):
        all_files = bench.discover(None)
        assert len(all_files) == 31
        figs = bench.discover("fig*|table1*")
        ids = [bench.bench_id(f) for f in figs]
        assert ids[0].startswith("fig") and "table1_primitives" in ids
        assert len(figs) == 9
        assert bench.discover("zzz*") == []

    def test_coverage_check_names_silent_benchmarks(self):
        files = bench.discover("fig1*|fig2*")
        rows = [benchlib.BenchResult("fig1_layouts", "k")]
        failures = bench.check_coverage(files, rows)
        assert failures == ["bench_fig2_cag_jacobi.py: produced no BenchResult records"]

    def _run_main(self, tmp_path, rows, check=True, only="fig1*"):
        records = benchlib.write_records(tmp_path / "records.json", rows)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(benchlib.baseline_from_results(
            [benchlib.BenchResult("fig1_layouts", "k", makespan=100.0)]
        )))
        argv = [
            "--records", str(records), "--baseline", str(baseline),
            "--only", only, "--no-profile", "--out", str(tmp_path / "out"),
        ]
        if check:
            argv.append("--check")
        return bench.main(argv)

    def test_clean_records_pass_and_emit_doc(self, tmp_path, capsys):
        rows = [benchlib.BenchResult("fig1_layouts", "k", makespan=100.0)]
        assert self._run_main(tmp_path, rows) == 0
        docs = list((tmp_path / "out").glob("BENCH_*.json"))
        assert len(docs) == 1
        doc = json.loads(docs[0].read_text())
        assert doc["schema"] == benchlib.SCHEMA
        assert doc["records"][0]["kernel"] == "k"
        assert doc["gate"]["failures"] == []

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        rows = [benchlib.BenchResult("fig1_layouts", "k", makespan=120.0)]
        assert self._run_main(tmp_path, rows) == 1
        err = capsys.readouterr().err
        assert "fig1_layouts/k" in err and "makespan" in err

    def test_out_of_band_drift_exits_nonzero(self, tmp_path, capsys):
        rows = [benchlib.BenchResult(
            "fig1_layouts", "k", makespan=100.0,
            measured=500.0, analytic=100.0, band="redist-words",
        )]
        assert self._run_main(tmp_path, rows) == 1
        assert "redist-words" in capsys.readouterr().err

    def test_missing_coverage_exits_nonzero(self, tmp_path, capsys):
        rows = [benchlib.BenchResult("fig1_layouts", "k", makespan=100.0)]
        assert self._run_main(tmp_path, rows, only="fig1*|fig2*") == 1
        assert "bench_fig2_cag_jacobi.py" in capsys.readouterr().err

    def test_no_match_is_usage_error(self, tmp_path):
        assert bench.main(["--only", "zzz*", "--no-profile"]) == 2

    def test_bench_dir_discovery_and_defaults(self, tmp_path):
        """--bench-dir redirects discovery; baseline/out default under it."""
        bdir = tmp_path / "altbench"
        bdir.mkdir()
        (bdir / "bench_fake_thing.py").write_text("# placeholder\n")
        files = bench.discover(None, bench_dir=bdir)
        assert [f.name for f in files] == ["bench_fake_thing.py"]

        rows = [benchlib.BenchResult("fake_thing", "k", makespan=10.0)]
        records = benchlib.write_records(tmp_path / "r.json", rows)
        argv = ["--records", str(records), "--bench-dir", str(bdir),
                "--no-profile", "--update-baseline"]
        assert bench.main(argv) == 0
        assert (bdir / "baseline.json").exists()
        assert list((bdir / "artifacts").glob("BENCH_*.json"))
        # Second run gates against the auto-located baseline.
        assert bench.main(["--records", str(records), "--bench-dir", str(bdir),
                           "--no-profile", "--check"]) == 0
        rows_bad = [benchlib.BenchResult("fake_thing", "k", makespan=20.0)]
        records_bad = benchlib.write_records(tmp_path / "rb.json", rows_bad)
        assert bench.main(["--records", str(records_bad), "--bench-dir", str(bdir),
                           "--no-profile", "--check"]) == 1

    def test_empty_bench_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert bench.main(["--bench-dir", str(empty), "--no-profile"]) == 2

    def test_missing_baseline_is_usage_error(self, tmp_path):
        rows = [benchlib.BenchResult("fig1_layouts", "k", makespan=1.0)]
        records = benchlib.write_records(tmp_path / "r.json", rows)
        rc = bench.main([
            "--records", str(records), "--only", "fig1*", "--check",
            "--no-profile", "--baseline", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2


class TestToolEntryPoints:
    def _env_with_src(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return env

    def test_python_m_repro_tools_exits_zero(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.tools"],
            env=self._env_with_src(), capture_output=True, text=True,
        )
        assert out.returncode == 0 and "repro.tools.bench" in out.stdout

    @pytest.mark.parametrize("module", ["repro.tools.report", "repro.tools.bench"])
    def test_python_m_help_exits_zero(self, module):
        out = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            env=self._env_with_src(), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "usage" in out.stdout.lower()

    @pytest.mark.parametrize("script", ["report.py", "bench.py"])
    def test_file_path_invocation_uses_pythonpath(self, script):
        """File-path execution imports like any repro module.

        The tools used to carry an in-file ``sys.path`` bootstrap so a
        bare ``python src/repro/tools/bench.py`` worked from anywhere;
        that hack is gone (``--bench-dir`` covers the relocation case),
        so file-path runs need ``src/`` importable — the same contract
        as ``python -m``.
        """
        out = subprocess.run(
            [sys.executable, str(REPO / "src" / "repro" / "tools" / script), "--help"],
            env=self._env_with_src(), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        out = subprocess.run(
            [sys.executable, str(REPO / "src" / "repro" / "tools" / script), "--help"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode != 0 and "repro" in out.stderr


# ------------------------------------------- hypothesis: model drift sweep
def _pl(dim_map, kinds, rest="fixed"):
    return ArrayPlacement("T", tuple(dim_map), kinds=tuple(kinds), rest=rest)


@st.composite
def placement_case(draw):
    grid = draw(st.sampled_from([(4, 1), (1, 4), (2, 2)]))
    extent = draw(st.integers(1, 3)) * grid[0] * grid[1] * 2
    placements = []
    for rest_options in (("fixed",), ("fixed", "replicated")):
        g = draw(st.sampled_from([None, 1, 2]))
        if g is not None and grid[g - 1] == 1:
            g = None
        kind = draw(st.sampled_from([Kind.BLOCK, Kind.CYCLIC]))
        rest = draw(st.sampled_from(rest_options))
        placements.append(_pl((g,), (kind,), rest=rest))
    return grid, extent, placements[0], placements[1]


class TestModelDriftProperties:
    """Random placements/kernels must stay inside their registered bands
    on both engines — the live form of the bench harness's drift oracle."""

    @settings(max_examples=40, deadline=None)
    @given(case=placement_case(), backend=st.sampled_from(sorted(RUNNERS)))
    def test_redist_words_band_holds_for_random_moves(self, case, backend):
        grid, extent, src, dst = case
        lowering = lower_placement_delta(src, dst, (extent,), grid)
        assume(lowering.exact)
        plan = placement_change_plan(src, dst, extent, grid, CommCosts(MODEL))
        assume(plan.analytic_words > 0)
        data = np.arange(1, extent + 1, dtype=np.float64)

        def prog(p):
            local = pack_section(data, src, (extent,), grid, p.rank)
            out = yield from redistribute(p, local, src, dst, (extent,), grid)
            return out

        res = RUNNERS[backend](prog, Grid2D(*grid), MODEL)
        measured = res.metrics.scope_totals("redist").words
        ratio = measured / plan.analytic_words
        assert BANDS["redist-words"].check(ratio), (src, dst, grid, ratio)

    @settings(max_examples=8, deadline=None)
    @given(
        shape=st.sampled_from([(32, 4), (64, 4), (64, 8)]),
        backend=st.sampled_from(sorted(RUNNERS)),
    )
    def test_jacobi_dp_band_holds_on_both_engines(self, shape, backend):
        m, n = shape
        iters = 2
        A, b, _ = make_spd_system(m, seed=m + n)
        res = RUNNERS[backend](
            jacobi_rowdist, Ring(n), MODEL, args=(A, b, np.zeros(m), iters)
        )
        ratio = jacobi_dp_time(m, n, MODEL).total / (res.makespan / iters)
        assert BANDS["jacobi-dp-makespan"].check(1 / ratio), (shape, backend, ratio)
