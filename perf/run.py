"""Wall-clock benchmark for the compile -> simulate -> observe path.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

One process measures one workload (closed loop, one client, one thread).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger (and writes a Perfetto trace under ``perf/out/``).  Without
``--workload`` every workload runs in turn, each in its own process.  A
human-readable report goes first; the last line of standard output is
the JSON result.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
import registry  # noqa: E402
import spans  # noqa: E402

SETUP_REPS = 3

#: What a fresh interpreter pays before it can serve this benchmark's
#: first request: importing the program and everything the harness calls.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = {paths!r}; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(paths=[str(SRC), str(HERE)])],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(cls, seed: int):
    """Set up :data:`SETUP_REPS` times; -> (last instance, seconds each).

    One set-up = import in a fresh interpreter + build the inputs from
    the seed + one discarded warm-up operation (the first runs 1.3-2x
    slow: lazy imports, ``exec`` of generated code, lowering caches).
    """
    seconds, workload = [], None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload = cls(seed, OUT)
        workload.op()
        seconds.append(t_import + time.perf_counter() - t0)
    # warm-up operations are not part of the measurement
    workload.attempted = workload.failed = 0
    return workload, seconds


def layer_ledger(op_spans: list[spans.Span]) -> dict:
    """Self time and public calls of every declared layer in one
    operation (the fastest, so the self times add up to its own time)."""
    self_times, calls = spans.self_times(op_spans), spans.calls(op_spans)
    unknown = set(self_times) - set(registry.SPAN_LAYERS)
    if unknown:
        raise RuntimeError(f"spans on undeclared layers: {sorted(unknown)}")
    out = {}
    for layer in registry.SPAN_LAYERS:
        out[f"{layer}.self_ms"] = self_times.get(layer, 0.0) * 1e3
        out[f"{layer}.calls"] = calls.get(layer, 0)
    return out


def traced_pass(workload, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """The per-layer run: a plain stretch (baseline for the tracing
    overhead), a spanned stretch, then probe rounds with what is left."""
    import probes  # here, so an untraced run neither loads nor pays for it

    t_end = time.perf_counter() + seconds
    plain = harness.measure(workload.op, 0.2 * seconds)

    rec = spans.Recorder()
    ops: list[tuple[float, int, int]] = []  # (seconds, first span, end span)

    def spanned_op():
        lo = len(rec.spans)
        seconds = workload.traced_op(rec)
        ops.append((seconds, lo, len(rec.spans)))
        return seconds

    traced = harness.measure(spanned_op, 0.25 * seconds)

    tracemalloc.start()
    workload.op()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()

    probe = probes.Probes(seed, OUT)
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(probe.round())
        if 2 * time.perf_counter() - t0 > t_end:  # no room for another round
            break
    probed = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name in registry.EXACT and len(set(values)) > 1:
            raise RuntimeError(f"exact metric {name} changed between rounds: {values}")
        probed[name] = statistics.median(values)
    workload.verdict(workload.golden("probes", probed), "probe goldens")

    _, lo, hi = min(ops)
    metrics = {
        **layer_ledger(rec.spans[lo:hi]),
        "bench.plain_op_ms": plain.best * 1e3,
        "bench.tracing_overhead_ratio": traced.best / plain.best,
        "bench.span_coverage": (
            sum(spans.self_times(rec.spans).values()) / spans.request_seconds(rec.spans)
        ),
        "bench.units_per_op": workload.units_per_op,
        "bench.us_per_unit": plain.best * 1e6 / workload.units_per_op,
        "host.calib_ms": min(plain.calib_ms, traced.calib_ms),
        "host.noisy_ops": plain.noisy_ops + traced.noisy_ops,
        "host.tracemalloc_peak_mb": peak_mb,
        "model.cost": workload.model["cost"],
        "model.events": workload.model["events"],
        "model.message_words": workload.model["message_words"],
        **probed,
    }
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{workload.name}_seed{seed}.json"
    rec.write_perfetto(trace_path, {"workload": workload.name, "seed": seed})
    notes = [
        f"plain op:   best={plain.best * 1e3:.3f} ms  {plain.stats.line('ms', 1e3)}",
        f"spanned op: best={traced.best * 1e3:.3f} ms  {traced.stats.line('ms', 1e3)}",
        f"probe rounds: {len(rounds)}; {len(rec.spans)} spans -> {trace_path.relative_to(HERE.parent)}",
    ]
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_import0 = time.perf_counter()
    import workloads  # the program is imported here; a missing src/ ends the run

    first_import = time.perf_counter() - t_import0
    OUT.mkdir(exist_ok=True)
    workload, setups = set_up(workloads.WORKLOADS[name], seed)
    gc.collect()
    try:
        if trace:
            metrics, notes = traced_pass(workload, seed, seconds)
        else:
            measured = harness.measure(workload.op, seconds)
            metrics = {
                "op_ms": measured.best * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes = [
                f"op: best={measured.best * 1e3:.3f} ms  {measured.stats.line('ms', 1e3)}",
                f"one op = {workload.units_per_op} {workload.unit}s; "
                f"{measured.best * 1e6 / workload.units_per_op:.3f} us/{workload.unit}",
                f"operations timed {measured.ops} (set aside as noisy: {measured.noisy_ops}); "
                f"calibration {measured.calib_ms:.3f} ms",
                f"set-ups {' '.join(f'{s:.3f}' for s in setups)} s; "
                f"in-process import {first_import:.3f} s",
            ]
    finally:
        workload.close()

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for note in notes:
        print(f"   {note}")
    for metric, value in metrics.items():
        print(f"   {metric:52s} {value:14.6g} {registry.UNITS[metric]}")
    print(f"   operations attempted={workload.attempted} failed={workload.failed}")
    for failure in workload.failures:
        print(f"   FAILED {failure}")
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            k: {"value": float(v), "unit": registry.UNITS[k]} for k, v in metrics.items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(registry.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload is None:
        # one process per workload, so set-up time and peak memory stay its own
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *sys.argv[1:]]).returncode
            for name in registry.WORKLOADS
        ]
        return max(codes)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
