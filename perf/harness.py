"""Timing loop, noise sentinel and summary statistics.

One run measures one workload: closed loop, one client, one thread.  A
pure-Python calibration loop runs before and after every operation and
is the only thing the noise rule reads.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

#: An operation whose calibration exceeds this multiple of the run's best
#: is set aside (host noise, not the program).
NOISE_FACTOR = 1.15


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop, best of seven.

    Best-of-seven ignores the sub-millisecond preemptions this host has
    all the time (best-of-three exceeded 1.15x its own best on 10 % of
    quiet calls, best-of-seven on 1 %) but still sees a sustained
    slowdown — a noisy neighbour, frequency scaling — which is what the
    sentinel is for.  Also reported as ``host.calib_ms`` so runs on
    different hosts can be put side by side.
    """
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


@dataclass(frozen=True)
class Stats:
    n: int
    median: float
    q1: float
    q3: float
    min: float
    tail_pct: int  # highest percentile with >= 10 samples beyond it (0: none)
    tail: float

    @classmethod
    def of(cls, values: list[float]) -> "Stats":
        vs = sorted(values)
        n = len(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)  # measure() keeps at least two
        pct, tail = 0, vs[-1]
        if n > 10:
            # n - 10 samples lie at or below the value with 10 beyond it
            pct = int(100 * (n - 10) / n)
            tail = vs[n - 11]
        return cls(n, statistics.median(vs), q1, q3, vs[0], pct, tail)

    def line(self, unit: str, scale: float = 1.0) -> str:
        tail = f" p{self.tail_pct}={self.tail * scale:.3f}" if self.tail_pct else ""
        return (
            f"median={self.median * scale:.3f} {unit} n={self.n} "
            f"q1={self.q1 * scale:.3f} q3={self.q3 * scale:.3f} "
            f"min={self.min * scale:.3f}{tail}"
        )


@dataclass
class Measurement:
    samples: list[float]  # seconds per kept operation
    ops: int
    noisy_ops: int
    calib_ms: float  # the run's best calibration

    @property
    def stats(self) -> Stats:
        return Stats.of(self.samples)

    @property
    def best(self) -> float:
        """Seconds of the fastest kept operation — the gated timing.

        Host noise here only ever adds time and, in its bad stretches,
        touches 40-80 % of the operations: over 90 ten-second windows of
        one workload the median of all operations spread by 18 %
        (inter-quartile, of its own median), the median of those the
        sentinel keeps by 11 %, the first quartile by 8 %, the minimum
        by 4 %."""
        return min(self.samples)


def measure(op, seconds: float) -> Measurement:
    """Call *op* (-> seconds of its timed region) until *seconds* of wall
    time have passed, at least three times.

    The cyclic garbage collector is emptied before every operation and
    switched off during it, as ``timeit`` does.  What its sweeps cost
    depends on how many objects the *harness* keeps alive and on where
    in the collector's cycle an operation starts: a warm pass that
    unpickles 36 plans took 38, 49 or 55 ms, and the fastest warm
    operation differed by 25 % between seeds (140-177 ms, against
    107-115 ms with the collector off).  Garbage an operation leaves
    behind shows in ``peak_rss_mb`` instead.

    An operation whose calibration (the worse of before/after) exceeds
    :data:`NOISE_FACTOR` x the run's best is set aside — at most a third
    of them, noisiest first, counted and never silently dropped.  The
    loop runs to the time limit either way, so a noisy stretch costs
    samples, not accuracy.
    """
    done: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    last = calibrate()
    while len(done) < 3 or time.perf_counter() < deadline:
        gc.collect()
        gc.disable()
        try:
            sample = op()
        finally:
            gc.enable()
        now = calibrate()
        done.append((max(last, now), sample))
        last = now
    best = min(c for c, _ in done)
    ranked = sorted(range(len(done)), key=lambda i: -done[i][0])
    noisy = {i for i in ranked[: len(done) // 3] if done[i][0] > NOISE_FACTOR * best}
    kept = [s for i, (_, s) in enumerate(done) if i not in noisy]
    return Measurement(kept, len(done), len(noisy), best)
