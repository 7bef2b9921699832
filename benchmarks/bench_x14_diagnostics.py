"""X14 — automated diagnostics: wait attribution + run-diff drift.

Two claims, both gated by registered slack bands:

* **wait-attribution** — on the chaos Jacobi drill (the same seeded
  fault plan as ``--chaos`` and ``report --diagnose jacobi``) the
  attribution pass explains at least 90% of all blocked-wait seconds
  by a *named* cause: an injected channel fault, a deadline kill, or a
  straggling/blocked sender;
* **overlap-makespan** — the blocking-vs-overlapped heat diff shows the
  per-word transfer occupancy eliminated while the alpha term is
  conserved, and the measured overlapped makespan reconciles with the
  blocking twin executed on the ``overlap=True`` model (the X10
  prediction).

Simulated time only — every recorded number is deterministic and
baseline-gated bit-for-bit.
"""

from __future__ import annotations

from dataclasses import replace

from repro.costmodel.bands import get_band
from repro.obs import (
    TraceStore,
    attribute_waits,
    diff_runs,
    drift_terms,
    explain_drift,
    load_imbalance,
)
from repro.tools.runs import RUNS
from repro.util.tables import Table

#: The chaos drill and the X10 heat pair, as ``report`` runs them.
CHAOS = RUNS["jacobi-chaos"]
M, N = CHAOS.m, CHAOS.topology.size


def test_x14_wait_attribution_coverage(emit, record):
    res = CHAOS()
    store = TraceStore.from_run(res)
    waits = attribute_waits(store)
    imbalance = load_imbalance(store)
    band = get_band("wait-attribution")

    record(
        f"jacobi-chaos-m{M}-p{N}",
        makespan=max(res.finish_times),
        measured=waits.attributed_seconds,
        analytic=waits.total_seconds,
        band="wait-attribution",
        metrics=res.metrics,
        extra={
            "coverage": waits.coverage,
            "by_cause": waits.by_cause(),
            "dispersion": imbalance.entries[0].dispersion,
            "offender": imbalance.entries[0].offender,
        },
    )
    assert waits.total_seconds > 0
    assert band.check(waits.coverage), waits.describe()

    table = Table(
        ["cause", "seconds", "share"],
        title=f"X14 — idle-time attribution, chaos Jacobi m={M}, P={N}",
    )
    total = waits.total_seconds
    for cause, seconds in waits.by_cause().items():
        table.add_row([cause, f"{seconds:g}", f"{seconds / total:.1%}"])
    table.add_row(["(coverage)", f"{waits.attributed_seconds:g}",
                   f"{waits.coverage:.1%}"])
    emit("x14_wait_attribution", table.render())
    emit.json("x14_wait_attribution", {
        "coverage": waits.coverage,
        "band": [band.lower, band.upper],
        "by_cause": waits.by_cause(),
        "by_culprit": waits.by_culprit(),
    })


def test_x14_run_diff_drift(emit, record):
    model = RUNS["heat-blocking"].model
    blocking = RUNS["heat-blocking"]()
    overlapped = RUNS["heat-overlap"]()
    predicted = RUNS["heat-blocking"](model=replace(model, overlap=True))
    drift = explain_drift(
        "overlap-makespan",
        measured=overlapped.makespan,
        analytic=predicted.makespan,
        terms_measured=drift_terms(overlapped.metrics, model),
        terms_analytic=drift_terms(
            predicted.metrics, replace(model, overlap=True)
        ),
        label="overlapped heat vs blocking twin on overlap=True",
    )
    diff = diff_runs(
        blocking, overlapped, model,
        label_a="heat-blocking", label_b="heat-overlap", drift=drift,
    )

    record(
        "heat-overlap-n8-m256",
        makespan=overlapped.makespan,
        measured=overlapped.makespan,
        analytic=predicted.makespan,
        band="overlap-makespan",
        metrics=overlapped.metrics,
        extra={
            "blocking_makespan": blocking.makespan,
            "term_delta": diff.term_delta(),
            "dominant_term": drift.dominant_term,
        },
    )
    assert drift.ok, drift.describe()
    # latency hiding removes exactly the per-word transfer occupancy;
    # the message count (alpha term) is conserved
    delta = diff.term_delta()
    assert delta["alpha"] == 0
    assert delta["transfer"] == -drift_terms(blocking.metrics, model)["transfer"]
    assert diff.terms_b["transfer"] == 0

    emit("x14_run_diff", diff.describe())
    emit.json("x14_run_diff", diff.as_dict())
