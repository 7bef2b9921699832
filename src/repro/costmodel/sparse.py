"""Analytic cost-model entries for the sparse inspector/executor path.

Dense entries (:mod:`repro.costmodel.formulas`) are closed forms in the
problem size; sparse costs are functions of the *schedule* — the
inspector already counted every word the executor will move, so the
analytic predictions here read counts straight off the
:class:`~repro.pipeline.inspector.CommSchedule` rather than estimating
them.  That is what makes the ``sparse-redist-words`` band exact (ratio
1.0): the "model" and the executor share one source of truth, and the
band's job is to detect them drifting apart (docs/SPARSE.md).
"""

from __future__ import annotations

from repro.costmodel.primitives import TimeBreakdown
from repro.errors import CostModelError
from repro.machine.model import MachineModel
from repro.pipeline.inspector import CommSchedule


def sparse_gather_words(schedule: CommSchedule, iterations: int = 1) -> int:
    """Words the executor moves over *iterations* sweeps (exact)."""
    if iterations < 1:
        raise CostModelError(f"iterations must be >= 1, got {iterations}")
    return iterations * schedule.gather_words


def inspector_words(schedule: CommSchedule) -> int:
    """Words the one-shot on-machine inspector exchange moves (exact)."""
    return schedule.inspector_words


def spmv_sweep_time(
    schedule: CommSchedule, nnz: int, model: MachineModel | None = None
) -> TimeBreakdown:
    """Predicted time of one executor SpMV sweep.

    Computation is the owner-computes bound ``2 nnz/P tf`` on the most
    loaded rank; communication charges each of that rank's neighbor
    messages an ``alpha`` post plus two-endpoint ``tc`` per word (the
    simulator charges the wire at both ends, like the dense benches).
    """
    model = model or MachineModel()
    if nnz < 0:
        raise CostModelError(f"nnz must be nonnegative, got {nnz}")
    busiest_comp = max(len(r.local_rows) for r in schedule.ranks)
    busiest = max(
        schedule.ranks,
        key=lambda r: sum(len(idx) for _, idx in r.recv_from)
        + sum(len(idx) for _, idx in r.send_to),
    )
    words = sum(len(idx) for _, idx in busiest.recv_from) + sum(
        len(idx) for _, idx in busiest.send_to
    )
    messages = len(busiest.recv_from) + len(busiest.send_to)
    return TimeBreakdown(
        comp=2 * busiest_comp * model.tf,
        comm=model.seconds(0, messages, 2 * words),
    )


def amortization_ratio(
    schedule: CommSchedule, nnz: int, iterations: int
) -> float:
    """Predicted naive/amortized word-volume ratio for a k-sweep SpMV.

    The strawman re-runs the inspector exchange before every sweep, so
    its wire volume is ``k * (inspector + gather)`` against the
    amortized ``inspector + k * gather``.  A lower envelope for the
    measured makespan ratio (the strawman also repeats pattern-walk
    flops, which this word count ignores).
    """
    if iterations < 1:
        raise CostModelError(f"iterations must be >= 1, got {iterations}")
    gather = schedule.gather_words
    inspect = schedule.inspector_words
    amortized = inspect + iterations * gather
    if amortized == 0:
        return 1.0
    return (iterations * (inspect + gather)) / amortized
