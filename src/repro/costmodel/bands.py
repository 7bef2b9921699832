"""Central registry of measured-vs-analytic slack bands (the drift oracle).

The paper's whole argument is that its analytic cost model (Table 1
primitives, the §3 grid formulas, the §4 DP chains, the §5 pipeline
times) predicts machine behavior.  Several parts of the repo reconcile a
*measured* number against an *analytic* prediction and accept a
documented ratio band; before ISSUE 5 those bands lived ad hoc in
``repro.dp.validate`` (redistribution word counts) and
``repro.tools.report`` (overlap makespans).  This module is the single
home: every band has a name, bounds and a rationale, and the bench
harness (:mod:`repro.tools.bench`) asserts each benchmark record against
its registered band so cost-model drift fails loudly *by name*.

Bounds are calibrated from the committed artifacts in
``benchmarks/artifacts/`` and leave margin on both sides; the rationale
strings say where each asymmetry comes from (usually the simulator
charging ``tc`` per word at both endpoints of a transfer, which the
one-sided Table 1 forms do not).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CostModelError


@dataclass(frozen=True)
class SlackBand:
    """A named acceptance band for a measured/analytic ratio."""

    name: str
    lower: float
    upper: float
    rationale: str

    def check(self, ratio: float) -> bool:
        return self.lower <= ratio <= self.upper

    def describe(self) -> str:
        return f"{self.name} [{self.lower:g}x .. {self.upper:g}x]"


#: Redistribution word counts: exact literal lowerings of Table 1
#: primitives (migrated from ``repro.dp.validate``).  Lower bound 1.0 —
#: the lowering can never move fewer words than the analytic volume;
#: upper 2.0 — tree collectives pay at most one extra traversal
#: (see docs/REDISTRIBUTION.md; observed 1.000-1.875 in X8).
REDIST_WORDS = SlackBand(
    "redist-words",
    1.0,
    2.0,
    "literal lowerings move >= the analytic volume; tree collectives pay "
    "at most one extra traversal (docs/REDISTRIBUTION.md)",
)

#: Overlapped-kernel makespans vs the blocking twin on the
#: ``overlap=True`` model (migrated from ``repro.tools.report``).
#: The ring Jacobi twins have identical event sequences (ratio exactly
#: 1); the stencil/SOR rewrites reorder compute, landing 0.83-0.96
#: across alpha in {10, 100} (docs/OVERLAP.md).
OVERLAP_MAKESPAN = SlackBand(
    "overlap-makespan",
    0.75,
    1.10,
    "software latency hiding vs the analytic overlap=True prediction; "
    "interior/boundary reordering can beat or trail it (docs/OVERLAP.md)",
)

#: Table 1 primitive makespans on the simulated hypercube vs the
#: one-sided analytic forms.  The engine charges tc at both endpoints
#: (ratio ~2), Reduction adds per-level combine flops (3.0),
#: AffineTransform's analytic form prices the worst-case permutation
#: while the benchmarked rotation is a single shift (0.5).
PRIMITIVE_MAKESPAN = SlackBand(
    "primitive-makespan",
    0.4,
    3.5,
    "two-endpoint tc charging (~2x), reduce combine flops (3x), "
    "single-shift affine rotation (0.5x) — see table1_primitives",
)

#: §3 Jacobi grid-shape totals (Table 2): the simulator resolves the
#: blocked waiting the analytic forms fold into 'communication', so the
#: (1, N) shape lands ~2x the analytic total while the wait-free (N, 1)
#: shape lands ~0.45x.
JACOBI_GRID_MAKESPAN = SlackBand(
    "jacobi-grid-makespan",
    0.3,
    2.5,
    "analytic grid forms ignore blocked waits; observed 0.44-2.0 across "
    "the three Table 2 shapes",
)

#: §4 DP chain for Jacobi: simulated row-block kernel vs the
#: ``jacobi_dp_time`` prediction (X1 asserts 0.5-2.0; observed 1.19-1.53).
JACOBI_DP_MAKESPAN = SlackBand(
    "jacobi-dp-makespan",
    0.5,
    2.0,
    "row-block kernel vs the DP's per-iteration prediction; allgather "
    "costs land on both endpoints (X1)",
)

#: §5 pipelined SOR: simulated per-iteration time vs
#: ``sor_pipelined_time`` (observed 1.07-1.21 across the X2 sweep; the
#: kernel appends a final allgather the analytic form omits).
SOR_PIPELINE_MAKESPAN = SlackBand(
    "sor-pipeline-makespan",
    0.9,
    1.5,
    "pipeline fill/drain plus the appended result allgather (X2)",
)

#: §5 naive SOR: simulated vs ``sor_naive_time`` (observed 1.20-1.60;
#: the log-factor reductions serialize worse than the analytic form).
SOR_NAIVE_MAKESPAN = SlackBand(
    "sor-naive-makespan",
    1.0,
    2.0,
    "per-row log-N reductions serialize; analytic form is a lower "
    "envelope (X2)",
)

#: §6 generated cyclic-pipeline Gauss vs ``gauss_pipelined_time``: the
#: generated program also pays back-substitution and two-endpoint word
#: charges the forward-elimination analytic form omits (observed
#: 1.39-2.06 across the Fig 8 sweep, growing with the ring width).
GAUSS_PIPELINE_MAKESPAN = SlackBand(
    "gauss-pipeline-makespan",
    1.2,
    2.5,
    "generated program adds back-substitution and two-endpoint word "
    "charges over the forward-elimination analytic form (Fig 8)",
)

#: Compile service (X11): cold-batch wall time over warm-batch wall time
#: on the same corpus.  A warm compile is canonicalize + two cache
#: fetches and skips alignment, the DP and codegen entirely.  The floor
#: guards the *warm* side (a cache that stopped short-circuiting reads
#: ~1x), so it must not punish a faster cold compile: ISSUE 13 took the
#: cold batch from 140-220 ms to 40-49 ms at an unchanged 0.9-1.0 ms per
#: warm request, moving the ratio from 26-40x to 6.7-8.2x — the old 10x
#: floor failed although nothing got slower.  Warm ms/request is in the
#: record's ``extra``; the ceiling is loose, both sides are wall-clock.
COMPILE_WARM_SPEEDUP = SlackBand(
    "compile-warm-speedup",
    3.0,
    10000.0,
    "warm compiles skip alignment/DP/codegen; canonicalize + unpickle "
    "must stay >= 3x cheaper than a full compile (X11: 6.7-8.2x after "
    "ISSUE 13 made cold 3x faster, 26-40x before)",
)

#: Compile service (X11): warm-pass cache hit rate over the expected
#: 1.0.  Recompiling an unchanged corpus must hit on every plan *and*
#: every solve lookup — anything below 1.0 means the content address is
#: unstable (canonicalization drift) and the band names it.
COMPILE_HIT_RATE = SlackBand(
    "compile-hit-rate",
    1.0,
    1.0,
    "recompiling an unchanged corpus must hit on every lookup; a miss "
    "means the canonical digest is unstable (X11)",
)

#: Compile service (X12): crash-drill wall time over crash-free wall
#: time on the same corpus through the supervised worker pool.  Lower
#: bound below 1.0 because both sides are wall-clock and the clean run
#: can be the noisier one; the ceiling bounds the cost of detection +
#: respawn backoff + retry for a handful of injected SIGKILLs — if a
#: crash drill blows past 25x, supervision itself regressed (e.g. a
#: respawn storm or an unbounded backoff).
SERVICE_CRASH_OVERHEAD = SlackBand(
    "service-crash-overhead",
    0.5,
    25.0,
    "detect + capped-backoff respawn + retry for injected worker kills; "
    "wall-clock on both sides (X12)",
)

#: Sparse executor (X13): measured ``sparse-gather`` scope words over
#: the schedule's analytic gather volume.  The executor sends exactly
#: the precomputed pack vectors — one message per neighbor pair,
#: ``len(indices)`` words each — so the ratio is 1.0 by construction;
#: any drift means the executor re-derived (or padded) traffic the
#: inspector did not plan, which is precisely the contract violation
#: this band names (docs/SPARSE.md).
SPARSE_REDIST_WORDS = SlackBand(
    "sparse-redist-words",
    1.0,
    1.0,
    "the executor replays precomputed pack vectors verbatim; measured "
    "scope words must equal the schedule's gather volume exactly (X13)",
)

#: Sparse inspector amortization (X13): makespan of the naive
#: re-inspect-every-sweep strawman over the inspect-once + replay
#: executor on the same k-iteration SpMV.  Every sweep the strawman
#: repeats the pattern-walk flops and the P*(P-1)-pair request
#: exchange, so it must be strictly slower; the ceiling is loose
#: because the advantage grows with iteration count and density
#: (observed 1.14-1.48 across k in {1, 4, 8} at X13's shape).
INSPECTOR_AMORTIZATION = SlackBand(
    "inspector-amortization",
    1.1,
    20.0,
    "re-inspecting per sweep repeats the pattern walk and the "
    "all-pairs request exchange that inspect-once amortizes (X13)",
)

#: Wait-attribution coverage (X14, docs/OBSERVABILITY.md): the share of
#: total blocked-wait seconds the diagnostics pass
#: (:func:`repro.obs.diagnose.attribute_waits`) pins on a *named* cause
#: — an injected channel fault, a crashed/deadline-killed peer, or a
#: straggling/blocked sender.  Every wait in a simulated trace has a
#: recorded sender-side history, so on the chaos Jacobi drill coverage
#: must reach at least 0.9; residual unattributed time is limited to
#: boundary intervals where the blamed lane shows no activity at all.
WAIT_ATTRIBUTION = SlackBand(
    "wait-attribution",
    0.9,
    1.0,
    "every simulated wait has a recorded sender-side history, so the "
    "attribution pass must explain >= 90% of idle time by name (X14)",
)

BANDS: dict[str, SlackBand] = {
    band.name: band
    for band in (
        REDIST_WORDS,
        OVERLAP_MAKESPAN,
        PRIMITIVE_MAKESPAN,
        JACOBI_GRID_MAKESPAN,
        JACOBI_DP_MAKESPAN,
        SOR_PIPELINE_MAKESPAN,
        SOR_NAIVE_MAKESPAN,
        GAUSS_PIPELINE_MAKESPAN,
        COMPILE_WARM_SPEEDUP,
        COMPILE_HIT_RATE,
        SERVICE_CRASH_OVERHEAD,
        SPARSE_REDIST_WORDS,
        INSPECTOR_AMORTIZATION,
        WAIT_ATTRIBUTION,
    )
}


def get_band(name: str) -> SlackBand:
    """Look up a registered band; unknown names raise CostModelError."""
    try:
        return BANDS[name]
    except KeyError:
        raise CostModelError(
            f"unknown slack band {name!r}; registered: {', '.join(sorted(BANDS))}"
        ) from None
