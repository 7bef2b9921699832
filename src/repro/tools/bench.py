"""Unified benchmark runner: flight recorder, drift oracle, gate.

Usage::

    python -m repro.tools.bench [--only PAT] [--baseline PATH] [--check]
    python -m repro.tools.bench --update-baseline
    python -m repro.tools.bench --records PATH --check   # re-gate old run

Discovers every ``benchmarks/bench_*.py``, runs them under pytest with
the ``record`` fixture collecting one :class:`~repro.tools.benchlib.
BenchResult` per kernel, and emits a single schema-versioned
``BENCH_<git-sha>.json`` with per-kernel makespans, message/word
totals, analytic predictions and measured/analytic ratios, plus a
wall-clock profile of the compiler itself (alignment, DP,
redistribution planning, codegen spans).

Three enforcement layers, each failing loudly and by name:

* **coverage** — every selected benchmark file must produce at least
  one record; a silently skipped benchmark is an error;
* **model-drift oracle** — every record carrying a registered slack
  band (:mod:`repro.costmodel.bands`) must land inside it;
* **regression gate** (``--check``) — makespans and message/word
  counts must not exceed the committed ``benchmarks/baseline.json``
  by more than ``--tolerance`` (default 5%); re-bless a deliberate
  change with ``--update-baseline``.

``--only`` takes ``|``-separated fnmatch globs against benchmark ids
(the file stem minus ``bench_``), e.g. ``--only 'fig*|table1*'``.
``--records`` skips the pytest run and re-checks an existing records
file — handy for CI forensics and for testing the gate itself.
``--bench-dir`` points the runner at an alternative benchmark tree
(defaults to the repo's ``benchmarks/``); ``--baseline`` and ``--out``
default relative to it.

Run as a module (``python -m repro.tools.bench``) with ``src/`` on
``PYTHONPATH`` — the runner itself re-exports that path to the pytest
subprocess it spawns.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from repro.machine.export import write_chrome_trace
from repro.tools import benchlib
from repro.tools.report import write_artifact
from repro.tools.runs import RUNS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
BENCH_DIR = REPO_ROOT / "benchmarks"
SRC_DIR = REPO_ROOT / "src"

#: Single fast round per benchmark: the numbers of record are simulated
#: makespans (deterministic), not wall-clock, so repetition buys nothing.
PYTEST_ARGS = [
    "-q",
    "-p",
    "no:cacheprovider",
    "--benchmark-min-rounds=1",
    "--benchmark-max-time=0",
    "--benchmark-warmup=off",
]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "nogit"
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def bench_id(path: pathlib.Path) -> str:
    stem = path.stem
    return stem[len("bench_"):] if stem.startswith("bench_") else stem


def discover(only: str | None, bench_dir: pathlib.Path = BENCH_DIR) -> list[pathlib.Path]:
    files = sorted(bench_dir.glob("bench_*.py"))
    if only is None:
        return files
    patterns = [p for p in only.split("|") if p]
    return [f for f in files if any(fnmatch.fnmatch(bench_id(f), p) for p in patterns)]


def run_benchmarks(files: list[pathlib.Path], records_path: pathlib.Path) -> int:
    env = dict(os.environ)
    env["REPRO_BENCH_RECORDS"] = str(records_path)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "pytest", *PYTEST_ARGS, *[str(f) for f in files]]
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env).returncode


def check_coverage(
    files: list[pathlib.Path], results: list[benchlib.BenchResult]
) -> list[str]:
    produced = {r.bench for r in results}
    return [
        f"{f.name}: produced no BenchResult records"
        for f in files
        if bench_id(f) not in produced
    ]


def profile_compiler() -> tuple[dict, list]:
    """Wall-clock span profile of the compiler on the paper programs.

    Returns ``(profile dict, spans)`` where *spans* (the full Jacobi
    pipeline) feed the Chrome-trace compiler lane.
    """
    from repro.alignment import build_cag, exact_alignment
    from repro.codegen import generate_spmd
    from repro.dp import solve_program_distribution
    from repro.lang import gauss_program, jacobi_program, sor_program
    from repro.machine.model import MachineModel
    from repro.util.spans import recording

    model = MachineModel(tf=1.0, tc=10.0)
    profile: dict = {}

    with recording() as rec:
        solve_program_distribution(
            jacobi_program(), 16, {"m": 256, "maxiter": 1}, model, execute=True
        )
    profile["jacobi-dp"] = {
        "wall_seconds": rec.wall_seconds,
        "phase_totals": rec.totals(),
        "spans": rec.as_dicts(),
    }
    trace_spans = rec.spans

    for name, maker, fragment_of in (
        ("sor", sor_program, lambda p: p.loops()[0].body),
        ("gauss", gauss_program, lambda p: p.body),
    ):
        with recording() as rec:
            program = maker()
            cag = build_cag(
                fragment_of(program), program, {"m": 64, "maxiter": 1}, model, nprocs=16
            )
            exact_alignment(cag, q=2)
            generate_spmd(program)
        profile[f"{name}-codegen"] = {
            "wall_seconds": rec.wall_seconds,
            "phase_totals": rec.totals(),
            "spans": rec.as_dicts(),
        }
    return profile, trace_spans


def write_compiler_trace(path: pathlib.Path, spans) -> pathlib.Path:
    """A Perfetto-loadable trace: the Fig 5 reference run + compiler lane."""
    return write_chrome_trace(
        path,
        RUNS["sor"]().trace,
        process_name="bench",
        metadata={"source": "repro.tools.bench"},
        spans=spans,
    )


def summary_lines(results: list[benchlib.BenchResult]) -> list[str]:
    lines = []
    for r in sorted(results, key=lambda r: r.key):
        bits = [f"{r.key}"]
        if r.makespan is not None:
            bits.append(f"makespan={r.makespan:g}")
        if r.message_words is not None:
            bits.append(f"words={r.message_words}")
        if r.ratio is not None:
            bits.append(f"ratio={r.ratio:.3f}")
        if r.band is not None:
            bits.append(f"band={r.band}")
        lines.append("  " + " ".join(bits))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench",
        description="Run the benchmark suite, check model drift, gate regressions.",
    )
    parser.add_argument(
        "--only", metavar="PAT",
        help="'|'-separated fnmatch globs on benchmark ids (e.g. 'fig*|table1*')",
    )
    parser.add_argument(
        "--bench-dir", type=pathlib.Path, default=BENCH_DIR,
        help="directory holding bench_*.py files (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="baseline file for --check / --update-baseline "
             "(default: <bench-dir>/baseline.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on regressions against the baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-bless the baseline from this run's records",
    )
    parser.add_argument(
        "--tolerance", type=float, default=benchlib.DEFAULT_TOLERANCE,
        help="relative regression tolerance for --check (default: %(default)s)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory for BENCH_<sha>.json (default: <bench-dir>/artifacts)",
    )
    parser.add_argument(
        "--records", type=pathlib.Path,
        help="re-check an existing records file instead of running pytest",
    )
    parser.add_argument(
        "--no-profile", action="store_true",
        help="skip the compiler wall-clock profile and trace artifact",
    )
    args = parser.parse_args(argv)
    if args.baseline is None:
        args.baseline = args.bench_dir / "baseline.json"
    if args.out is None:
        args.out = args.bench_dir / "artifacts"

    files = discover(args.only, bench_dir=args.bench_dir)
    if not files:
        what = f"--only {args.only!r}" if args.only else f"--bench-dir {args.bench_dir}"
        print(f"error: {what} matched no benchmarks", file=sys.stderr)
        return 2

    failures: list[str] = []
    if args.records is not None:
        try:
            results = benchlib.read_records(args.records)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read records {args.records}: {exc}", file=sys.stderr)
            return 2
        results = [r for r in results if r.bench in {bench_id(f) for f in files}]
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            records_path = pathlib.Path(tmp) / "records.json"
            rc = run_benchmarks(files, records_path)
            if rc != 0:
                print(f"error: pytest exited {rc}", file=sys.stderr)
                return rc
            if not records_path.exists():
                print("error: benchmark run produced no records file", file=sys.stderr)
                return 1
            results = benchlib.read_records(records_path)

    print(f"collected {len(results)} records from {len(files)} benchmarks")
    for line in summary_lines(results):
        print(line)

    failures += check_coverage(files, results)

    checked, drift = benchlib.check_drift(results)
    print(f"drift oracle: {checked} banded records checked, {len(drift)} out of band")
    failures += drift

    doc = {
        "schema": benchlib.SCHEMA,
        "git_sha": git_sha(),
        "selection": args.only or "*",
        "tolerance": args.tolerance,
        "records": [r.as_dict() for r in sorted(results, key=lambda r: r.key)],
        "drift": {"checked": checked, "failures": drift},
    }

    if not args.no_profile:
        profile, trace_spans = profile_compiler()
        doc["compiler_profile"] = profile
        for name, prof in profile.items():
            phases = ", ".join(
                f"{k}={v * 1e3:.1f}ms" for k, v in prof["phase_totals"].items()
            )
            print(f"compiler {name}: {prof['wall_seconds'] * 1e3:.1f}ms ({phases})")

    gate_failures: list[str] = []
    if args.check:
        if not args.baseline.exists():
            print(f"error: baseline {args.baseline} not found "
                  "(run --update-baseline to create it)", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        gate_failures = benchlib.compare_to_baseline(
            results, baseline, tolerance=args.tolerance, require_all=args.only is None
        )
        print(f"regression gate: {len(gate_failures)} failures "
              f"(tolerance +{args.tolerance * 100:g}%)")
        failures += gate_failures
        doc["gate"] = {
            "baseline": str(args.baseline),
            "failures": gate_failures,
        }

    if args.update_baseline:
        previous = (
            json.loads(args.baseline.read_text()) if args.baseline.exists() else None
        )
        blessed = benchlib.baseline_from_results(results, previous)
        write_artifact(args.baseline, blessed)
        print(f"baseline re-blessed: {args.baseline} ({len(blessed['entries'])} entries)")

    doc_path = write_artifact(args.out / f"BENCH_{doc['git_sha']}.json", doc)
    print(f"wrote {doc_path}")
    if not args.no_profile:
        trace_path = args.out / f"BENCH_{doc['git_sha']}.trace.json"
        write_compiler_trace(trace_path, trace_spans)
        print(f"wrote {trace_path}")

    if failures:
        print(f"\nFAIL ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
