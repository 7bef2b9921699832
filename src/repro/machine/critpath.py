"""Critical-path analysis of simulator traces.

The makespan of an SPMD run is determined by one chain of dependent
events — local work chained on each processor's clock, stitched across
processors by message edges.  :func:`critical_path` reconstructs that
chain from a trace by walking backwards from the last-finishing event:

* a ``recv`` that was preceded by a blocked ``wait`` was *bound by the
  message*: the walk jumps to the matching ``send`` on the sender's
  lane (paying any in-flight wire latency as a ``wire`` gap);
* every other event was bound by its own processor's clock: the walk
  steps to the immediately preceding event on the same lane.

Because the engine records ``wait`` events for every blocked interval,
each lane is gap-free from time 0 to the processor's finish time, so
the reconstructed path tiles ``[0, makespan]`` exactly and its length
equals the makespan — a structural invariant the tests rely on.

Per-rank *slack* (makespan minus the rank's busy seconds) shows which
processors pace the run (zero slack) and which idle — the measured
counterpart of the paper's load-balance arguments for cyclic
distributions (§5, §6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.trace import TraceEvent, trace_index
from repro.util.tables import Table

_EPS = 1e-9


@dataclass(frozen=True)
class PathStep:
    """One event on the critical path.

    ``wire`` is the in-flight latency paid immediately *before* this
    event started (nonzero only for message-bound receives on machines
    with ``hop_cost`` or overlap latency).
    """

    event: TraceEvent
    wire: float = 0.0


@dataclass
class CriticalPathReport:
    """The longest dependency chain of one run, plus per-rank slack."""

    steps: list[PathStep]  # in increasing time order
    makespan: float
    slack: list[float]  # per-rank: makespan - busy seconds

    @property
    def length(self) -> float:
        """Total path time: event durations plus wire gaps."""
        return sum(s.event.duration + s.wire for s in self.steps)

    def ranks_visited(self) -> list[int]:
        """Ranks along the path in time order, deduplicated consecutively."""
        out: list[int] = []
        for s in self.steps:
            if not out or out[-1] != s.event.rank:
                out.append(s.event.rank)
        return out

    def time_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.steps:
            out[s.event.kind] = out.get(s.event.kind, 0.0) + s.event.duration
        wire = sum(s.wire for s in self.steps)
        if wire > 0:
            out["wire"] = wire
        return out

    def describe(self, max_steps: int = 20) -> str:
        head = (
            f"critical path: length {self.length:g} (makespan {self.makespan:g}), "
            f"{len(self.steps)} events across ranks {self.ranks_visited()}"
        )
        by_kind = ", ".join(f"{k}={v:g}" for k, v in sorted(self.time_by_kind().items()))
        table = Table(["t_start", "t_end", "proc", "event"], title="Path tail")
        for s in self.steps[-max_steps:]:
            e = s.event
            table.add_row([f"{e.start:.2f}", f"{e.end:.2f}", f"P{e.rank}", e.label()])
        slack = " ".join(f"P{r}={s:g}" for r, s in enumerate(self.slack))
        return f"{head}\nby kind: {by_kind}\nslack: {slack}\n{table.render()}"


def _lane_busy(lane: list[TraceEvent]) -> float:
    return sum(e.end - e.start for e in lane if e.kind != "wait")


def critical_path(trace: list[list[TraceEvent]]) -> CriticalPathReport:
    """Walk message edges backwards to the chain that sets the makespan.

    The walk moves by position — ``(rank, i)`` on the lanes — through
    the trace's index (:func:`repro.machine.trace.trace_index`): it
    starts at the index's last-finishing event, steps to ``i - 1`` on
    the same lane, and crosses lanes through the index's recv -> send
    map, so it costs the length of the path, not of the trace.
    """
    index = trace_index(trace)
    makespan = index.makespan
    slack = [makespan - _lane_busy(lane) for lane in trace]
    if makespan <= 0:
        return CriticalPathReport(steps=[], makespan=makespan, slack=slack)

    at = index.last
    steps: list[PathStep] = []
    visited: set[tuple[int, int]] = set()
    while at is not None and at not in visited:  # zero-duration cycles: stop
        visited.add(at)
        rank, i = at
        cur = trace[rank][i]
        prev = trace[rank][i - 1] if i > 0 else None
        if (
            cur.kind == "recv"
            and prev is not None
            and prev.kind == "wait"
            and prev.peer == cur.peer
            and prev.tag == cur.tag
            and abs(prev.end - cur.start) <= _EPS
        ):
            # Message-bound receive: the constraint chain runs through the
            # sender; the idle wait itself is not on the path.
            sent = index.send_of(rank, i)
            if sent is not None:
                snd = trace[sent[0]][sent[1]]
                steps.append(PathStep(cur, wire=max(0.0, cur.start - snd.end)))
                at = sent
                continue
        steps.append(PathStep(cur))
        if prev is not None and prev.end >= cur.start - _EPS:
            at = (rank, i - 1)
        else:
            at = None  # reached the start of this rank's timeline
    steps.reverse()
    return CriticalPathReport(steps=steps, makespan=makespan, slack=slack)
