"""The artifact-regeneration CLI."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import tempfile

import pytest

from repro.obs import context
from repro.tools.report import MODES, SECTIONS, main

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "report_modes.json"


def _invocations() -> list[list[str]]:
    """Every mode x every combination of its registered targets."""
    return [
        [*([mode.flag] if mode.flag else []), *targets]
        for mode in MODES
        for targets in itertools.product(mode.targets or (), repeat=len(mode.metavar))
    ]


def _capture(argv: list[str]) -> dict:
    """One invocation with ``--out out`` in the current directory: exit
    code and the sha256 of stdout and of every file it wrote."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([*argv, "--out", "out"])
    return {
        "exit": rc,
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "artifacts": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(pathlib.Path("out").glob("*"))
        },
    }


class TestSections:
    def test_every_section_builds(self):
        for name, builder in SECTIONS:
            text = builder()
            assert isinstance(text, str) and text.strip(), name

    def test_table2_contains_dp_row(self):
        builder = dict(SECTIONS)["table2_analytic"]
        assert "S4 DP schemes" in builder()

    def test_generated_programs_contains_both(self):
        text = dict(SECTIONS)["generated_programs"]()
        assert "ring-pipeline" in text and "cyclic-pipeline" in text


class TestCli:
    def test_writes_artifacts(self, tmp_path, capsys):
        rc = main([str(tmp_path)])
        assert rc == 0
        written = sorted(p.name for p in tmp_path.glob("*.txt"))
        assert len(written) == len(SECTIONS)
        out = capsys.readouterr().out
        assert "headline_measurements" in out

    def test_stdout_only(self, capsys):
        rc = main([])
        assert rc == 0
        assert "Algorithm 1" in capsys.readouterr().out


class TestTraceCli:
    def test_trace_sor_writes_artifacts(self, tmp_path, capsys):
        import json

        rc = main(["--trace", "sor", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "Per-rank accounting" in out
        doc = json.loads((tmp_path / "sor_chrome_trace.json").read_text())
        assert doc["traceEvents"]
        metrics = json.loads((tmp_path / "sor_metrics.json").read_text())
        assert metrics["message_count"] > 0

    def test_trace_stdout_only(self, capsys):
        rc = main(["--trace", "cannon"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cannon/shift" in out

    def test_trace_positional_outdir(self, tmp_path):
        rc = main(["--trace", "jacobi", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "jacobi_chrome_trace.json").exists()

    def test_trace_sparse_kernel(self, tmp_path, capsys):
        import json

        rc = main(["--trace", "spmv", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Send matrix" in out
        doc = json.loads((tmp_path / "spmv_chrome_trace.json").read_text())
        assert doc["otherData"]["trace_context"]["run_id"].startswith("run-")
        # the events JSONL round-trips through the store
        from repro.obs import TraceStore

        store = TraceStore.read_jsonl(tmp_path / "spmv_events.jsonl")
        assert len(store) and store.nprocs == 8

    def test_unknown_trace_target_exits_nonzero_with_listing(self, capsys):
        rc = main(["--trace", "warp-drive"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown --trace target 'warp-drive'" in err
        assert "sparse-cg" in err and "jacobi" in err  # the listing helps

    def test_unknown_redist_style_targets_also_listed(self, capsys):
        rc = main(["--diagnose", "nope"])
        assert rc == 2
        assert "known:" in capsys.readouterr().err


class TestDiagnoseCli:
    def test_diagnose_jacobi_writes_json_twin(self, tmp_path, capsys):
        import json

        rc = main(["--diagnose", "jacobi", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wait attribution" in out and "diagnosis PASSED" in out
        doc = json.loads((tmp_path / "diagnose_jacobi.json").read_text())
        assert doc["ok"] is True
        assert doc["attribution"]["coverage"] >= 0.9
        assert doc["imbalance"]["entries"]
        assert set(doc["terms"]) == {"compute", "alpha", "transfer", "wait"}

    def test_diff_heat_pair_writes_json_twin(self, tmp_path, capsys):
        import json

        rc = main([
            "--diff", "heat-blocking", "heat-overlap", "--out", str(tmp_path)
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run diff" in out and "diff PASSED" in out
        name = "diff_heat-blocking_vs_heat-overlap.json"
        doc = json.loads((tmp_path / name).read_text())
        assert doc["ok"] is True
        assert doc["makespan_b"] < doc["makespan_a"]
        # overlap removes the per-word transfer occupancy entirely
        assert doc["terms_b"]["transfer"] == 0
        assert doc["terms_a"]["transfer"] > 0
        assert doc["drift"]["ok"] is True

    def test_unknown_diff_target_exits_nonzero(self, capsys):
        rc = main(["--diff", "heat-blocking", "nope"])
        assert rc == 2
        assert "unknown --diff target 'nope'" in capsys.readouterr().err


class TestModeGoldens:
    """stdout, exit code and every artifact of every mode x target, byte
    for byte (``goldens/report_modes.json``, recorded from the tree
    before ``report.py`` was rebuilt around ``MODES`` / ``RUNS`` /
    ``Emitter``).  Run ids count from 1 in each invocation and ``--out``
    is the relative ``out``, so stdout does not depend on the test order
    or the temp directory.  Re-record (only for an intended change of
    output): ``PYTHONPATH=src python -m tests.test_report_tool``."""

    GOLDEN = json.loads(GOLDEN_PATH.read_text())

    def test_golden_covers_exactly_the_mode_table(self):
        assert sorted(" ".join(argv) for argv in _invocations()) == sorted(self.GOLDEN)

    @pytest.mark.parametrize("argv", _invocations(), ids=lambda argv: " ".join(argv) or "sections")
    def test_golden_bytes(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(context, "_seq", itertools.count(1))
        assert _capture(argv) == self.GOLDEN[" ".join(argv)]

    def test_golden_help_lists_every_row(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        text = "".join(capsys.readouterr().out.split())  # argparse re-wraps
        for mode in MODES[1:]:
            assert mode.flag in text and "".join(mode.help.split()) in text
            for target in mode.targets or ():
                assert target in text

    @pytest.mark.parametrize("mode", [m for m in MODES if m.metavar], ids=lambda m: m.flag)
    def test_golden_unknown_target_exits_2_with_the_listing(self, mode, capsys):
        known = list(mode.targets)
        rc = main([mode.flag, *known[:len(mode.metavar) - 1], "warp-drive"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: unknown {mode.flag} target 'warp-drive'; known: {', '.join(sorted(known))}\n"
        )


if __name__ == "__main__":
    golden = {}
    for argv in _invocations():
        os.chdir(tempfile.mkdtemp(prefix="report-golden-"))
        context._seq = itertools.count(1)
        golden[" ".join(argv)] = _capture(argv)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} invocations in {GOLDEN_PATH}")
