"""A/A check: the benchmark against itself, the way its driver judges it.

    python3 perf/selfcheck.py [--seeds 10] [--first-seed 100] [--workload NAME ...]

For every workload this makes two sets of untraced runs of the same
tree, one run per seed in each set, and fails if

* any end-to-end metric's spread within a set — the distance between the
  first and third quartile of its values as a share of their median —
  exceeds the metric's bound (``setup_s`` is exempt from this one), or
* any end-to-end median of the second set is worse than the first set's
  by more than the bound, or
* two traced runs on one seed disagree on any *exact* per-layer metric,
  or any run reports a failed operation.

Spreads above a third of the bound are flagged ``tight``: the benchmark
should be steadier than it has to be.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

import registry

HERE = pathlib.Path(__file__).resolve().parent
SPREAD_EXEMPT = {"setup_s"}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}"
                         f"\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    ap.add_argument("--workload", action="append", choices=list(registry.WORKLOADS))
    args = ap.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    bad = 0
    report = {}
    for workload in args.workload or list(registry.WORKLOADS):
        sets = [[run(workload, seed, args.seconds, 0) for seed in seeds] for _ in range(2)]
        report[workload] = rows = {}
        for name, _unit, better, bound in registry.END_TO_END:
            a, b = ([r[name] for r in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
            spreads = (spread(a), spread(b))
            verdict = "ok"
            if max(spreads) > bound / 3:
                verdict = "tight"
            if worse > bound or (name not in SPREAD_EXEMPT and max(spreads) > bound):
                verdict, bad = "FAIL", bad + 1
            rows[name] = {"a": a, "b": b, "median_a": med_a, "median_b": med_b,
                          "spread_a": spreads[0], "spread_b": spreads[1], "worse": worse,
                          "bound": bound, "verdict": verdict}
            print(f"{workload:18s} {name:12s} A={med_a:10.4f} B={med_b:10.4f} "
                  f"worse={worse:+.3%} spread={spreads[0]:.3%}/{spreads[1]:.3%} "
                  f"bound={bound:.0%} {verdict}", flush=True)
        first, second = (run(workload, args.first_seed, args.seconds, 1) for _ in range(2))
        moved = sorted(n for n in registry.EXACT if first[n] != second[n])
        rows["exact_differ"] = moved
        if moved:
            bad += 1
        print(f"{workload:18s} exact per-layer metrics identical: "
              f"{'yes' if not moved else 'NO ' + ', '.join(moved)}", flush=True)
        # rewritten after every workload, so an interrupted check keeps what it has
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / "selfcheck.json").write_text(json.dumps(report, indent=1))
    print("A/A check:", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
