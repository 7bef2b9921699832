"""repro.obs — correlated telemetry and automated diagnostics.

One subsystem, three layers (docs/OBSERVABILITY.md):

* :mod:`repro.obs.context` — :class:`TraceContext` propagation: one run
  id minted at the compile request, carried across worker processes,
  stamped into every engine's :class:`~repro.machine.metrics.Metrics`;
* :mod:`repro.obs.store` — :class:`TraceStore`, the queryable JSONL
  event sink both engines and the compile service write through;
* :mod:`repro.obs.diagnose` — automated passes that turn stored events
  into named causes: wait attribution, load imbalance, critical-path
  diffs, and cost-model drift root-causing.

Only :mod:`~repro.obs.context` (a stdlib-only leaf, imported by the
engines themselves) loads eagerly; the store and diagnostics layers —
which import back into :mod:`repro.machine` and :mod:`repro.costmodel`
— resolve lazily on first attribute access, keeping the package safe to
import from anywhere in the dependency graph.
"""

from importlib import import_module

from repro.obs.context import (
    TraceContext,
    current_context,
    mint_context,
    stamp_current,
    tracing_context,
)

__all__ = [
    "TraceContext",
    "mint_context",
    "current_context",
    "tracing_context",
    "stamp_current",
    "TraceStore",
    "attribute_waits",
    "WaitAttributionReport",
    "load_imbalance",
    "ImbalanceReport",
    "critical_path_diff",
    "PathDiff",
    "drift_terms",
    "explain_drift",
    "DriftDiagnosis",
    "diff_runs",
    "RunDiff",
]

#: Lazily resolved exports: name -> defining submodule.
_LAZY = {
    "TraceStore": "repro.obs.store",
    "attribute_waits": "repro.obs.diagnose",
    "WaitAttributionReport": "repro.obs.diagnose",
    "load_imbalance": "repro.obs.diagnose",
    "ImbalanceReport": "repro.obs.diagnose",
    "critical_path_diff": "repro.obs.diagnose",
    "PathDiff": "repro.obs.diagnose",
    "drift_terms": "repro.obs.diagnose",
    "explain_drift": "repro.obs.diagnose",
    "DriftDiagnosis": "repro.obs.diagnose",
    "diff_runs": "repro.obs.diagnose",
    "RunDiff": "repro.obs.diagnose",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.obs' has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
