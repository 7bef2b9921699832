"""Shared benchmark-record protocol for the bench harness (ISSUE 5).

Every benchmark in ``benchmarks/`` reports its headline numbers as
:class:`BenchResult` records through the ``record`` fixture
(``benchmarks/conftest.py``); :mod:`repro.tools.bench` aggregates them
into one schema-versioned ``BENCH_<git-sha>.json``, asserts every
record with a named slack band against the central drift oracle
(:mod:`repro.costmodel.bands`), and gates makespan/word-count
regressions against a committed baseline.

The schema (``repro-bench/1``) is deliberately small and flat:

* ``bench`` — the benchmark id (file stem minus ``bench_``);
* ``kernel`` — the sub-case within the benchmark (one record each);
* ``makespan`` — the headline simulated time (lower is better);
* ``measured``/``analytic`` — the reconciled pair for the drift oracle
  (``measured`` defaults to ``makespan``; X8 reconciles *words*);
* ``band`` — the registered slack-band name the ratio must satisfy;
* ``message_count``/``message_words`` — traffic totals (gated);
* ``metrics`` — optionally the full deterministic
  :meth:`repro.machine.metrics.Metrics.as_dict` snapshot;
* ``compile_seconds`` — wall-clock compile time where the benchmark
  measures the compiler itself;
* ``extra`` — free-form numbers kept for the record, never gated.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.costmodel.bands import get_band
from repro.tools.report import write_artifact

#: Version tag stamped into every records file, artifact and BENCH doc.
SCHEMA = "repro-bench/1"

#: Default relative regression tolerance for the baseline gate.
DEFAULT_TOLERANCE = 0.05

#: Metrics the baseline gate compares (all "lower or equal is fine").
GATED_METRICS = ("makespan", "message_count", "message_words")


@dataclass
class BenchResult:
    """One structured benchmark datum (see module docstring)."""

    bench: str
    kernel: str
    makespan: float | None = None
    measured: float | None = None
    analytic: float | None = None
    band: str | None = None
    message_count: int | None = None
    message_words: int | None = None
    metrics: dict | None = None
    compile_seconds: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.band is not None:
            get_band(self.band)  # fail fast on unregistered names
        if self.metrics is not None and not isinstance(self.metrics, dict):
            # Accept a live Metrics registry for convenience.
            as_dict = getattr(self.metrics, "as_dict", None)
            if as_dict is None:
                raise TypeError(
                    "metrics must be a dict or expose as_dict(); got "
                    f"{type(self.metrics).__name__}"
                )
            self.metrics = as_dict()
        if self.metrics is not None:
            if self.message_count is None:
                self.message_count = self.metrics.get("message_count")
            if self.message_words is None:
                self.message_words = self.metrics.get("message_words")

    @property
    def key(self) -> str:
        return f"{self.bench}/{self.kernel}"

    @property
    def ratio(self) -> float | None:
        """measured/analytic, the drift-oracle input (None when unpaired)."""
        measured = self.measured if self.measured is not None else self.makespan
        if measured is None or self.analytic in (None, 0):
            return None
        return measured / self.analytic

    def check_band(self) -> str | None:
        """None if in band (or unbanded); else a named failure message."""
        if self.band is None:
            return None
        band = get_band(self.band)
        ratio = self.ratio
        if ratio is None:
            return (
                f"{self.key}: band {band.name!r} declared but no "
                "measured/analytic pair to check"
            )
        if not band.check(ratio):
            return (
                f"{self.key}: measured/analytic {ratio:.3f} outside band "
                f"{band.describe()} — {band.rationale}"
            )
        return None

    def as_dict(self) -> dict:
        out: dict = {"bench": self.bench, "kernel": self.kernel}
        for name in (
            "makespan",
            "measured",
            "analytic",
            "band",
            "message_count",
            "message_words",
            "compile_seconds",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.ratio is not None:
            out["ratio"] = self.ratio
        if self.extra:
            out["extra"] = {k: self.extra[k] for k in sorted(self.extra)}
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BenchResult":
        return cls(
            bench=data["bench"],
            kernel=data["kernel"],
            makespan=data.get("makespan"),
            measured=data.get("measured"),
            analytic=data.get("analytic"),
            band=data.get("band"),
            message_count=data.get("message_count"),
            message_words=data.get("message_words"),
            metrics=data.get("metrics"),
            compile_seconds=data.get("compile_seconds"),
            extra=dict(data.get("extra", {})),
        )


# -- records files (conftest -> runner handoff) -------------------------
def write_records(path: str | pathlib.Path, results: list[BenchResult]) -> pathlib.Path:
    doc = {
        "schema": SCHEMA,
        "records": [r.as_dict() for r in sorted(results, key=lambda r: r.key)],
    }
    return write_artifact(path, doc)


def read_records(path: str | pathlib.Path) -> list[BenchResult]:
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"records file {path} has schema {doc.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    return [BenchResult.from_dict(d) for d in doc["records"]]


def write_json_artifact(
    directory: str | pathlib.Path, name: str, payload: dict
) -> pathlib.Path:
    """Write one structured ``artifacts/<name>.json`` next to the .txt."""
    doc = {"schema": SCHEMA, "artifact": name, **payload}
    return write_artifact(pathlib.Path(directory) / f"{name}.json", doc)


# -- the model-drift oracle --------------------------------------------
def check_drift(results: list[BenchResult]) -> tuple[int, list[str]]:
    """Assert every banded record; return (checked count, failures)."""
    checked = 0
    failures: list[str] = []
    for r in sorted(results, key=lambda r: r.key):
        if r.band is None:
            continue
        checked += 1
        failure = r.check_band()
        if failure is not None:
            failures.append(failure)
    return checked, failures


# -- the regression gate -----------------------------------------------
def baseline_entry(result: BenchResult) -> dict:
    out = {}
    for name in GATED_METRICS:
        value = getattr(result, name)
        if value is not None:
            out[name] = value
    return out


def baseline_from_results(
    results: list[BenchResult], previous: dict | None = None
) -> dict:
    """A baseline doc; *previous* entries survive for unselected benches."""
    entries = dict(previous.get("entries", {})) if previous else {}
    for r in results:
        entries[r.key] = baseline_entry(r)
    return {
        "schema": SCHEMA,
        "entries": {k: entries[k] for k in sorted(entries)},
    }


def compare_to_baseline(
    results: list[BenchResult],
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    require_all: bool = False,
) -> list[str]:
    """Regression failures vs a committed baseline, named per metric.

    A metric regresses when ``current > baseline * (1 + tolerance)``
    (all gated metrics are lower-is-better).  Improvements pass silently
    — re-bless with ``--update-baseline`` to tighten the floor.  With
    *require_all*, baseline entries missing from *results* fail too
    (a benchmark silently disappearing is itself a regression).
    """
    if baseline.get("schema") != SCHEMA:
        return [
            f"baseline has schema {baseline.get('schema')!r}, expected {SCHEMA!r}"
        ]
    entries = baseline.get("entries", {})
    failures: list[str] = []
    seen: set[str] = set()
    for r in sorted(results, key=lambda r: r.key):
        seen.add(r.key)
        expected = entries.get(r.key)
        if expected is None:
            continue  # new record: not gated until blessed
        for metric in GATED_METRICS:
            base = expected.get(metric)
            current = getattr(r, metric)
            if base is None or current is None:
                continue
            limit = base * (1.0 + tolerance)
            if current > limit:
                failures.append(
                    f"{r.key}: {metric} regressed {base:g} -> {current:g} "
                    f"(+{(current / base - 1.0) * 100.0:.1f}%, limit "
                    f"+{tolerance * 100.0:g}%)"
                )
    if require_all:
        for key in sorted(set(entries) - seen):
            failures.append(f"{key}: present in baseline but produced no record")
    return failures
