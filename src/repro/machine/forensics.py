"""Deadlock forensics: turn a stuck machine into a diagnosis.

When every live processor is blocked on an empty channel, the engines no
longer raise a bare :class:`repro.errors.DeadlockError` — they attach a
:class:`DeadlockReport` that carries, per blocked rank, the channel it
waits on, its local clock at the moment it blocked, and the last few
events it executed (kept in a small always-on ring buffer, so the report
works even with tracing disabled).  The report derives the wait-for
graph and its cycles, which is usually enough to see *which* mismatched
send/recv pair wedged the program.

Render with :meth:`DeadlockReport.describe` or
``python -m repro.tools.report --deadlock``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.tables import Table

#: Ring-buffer depth of per-rank recent events kept for forensics.
RECENT_EVENTS = 8

#: Compact recent-event record: (kind, start, end, peer, tag, detail).
RecentEvent = tuple[str, float, float, int | None, int, str]


@dataclass(frozen=True)
class BlockedRank:
    """One processor stuck on an empty channel (a rank parked on several
    — a ``waitany`` — has one entry per waited channel)."""

    rank: int
    source: int  # rank it waits for
    tag: int
    since: float  # local clock when it blocked
    deadline: float | None = None  # timed waits (reliable-transfer acks)
    recent: tuple[RecentEvent, ...] = ()

    def waiting_on(self) -> str:
        extra = f", deadline={self.deadline:g}" if self.deadline is not None else ""
        return f"recv(source={self.source}, tag={self.tag}{extra})"


@dataclass(frozen=True)
class DeadlockReport:
    """Everything the engine knew when it declared a deadlock."""

    nprocs: int
    blocked: tuple[BlockedRank, ...]

    # -- graph queries ---------------------------------------------------
    def blocked_ranks(self) -> tuple[int, ...]:
        return tuple(sorted({b.rank for b in self.blocked}))

    def wait_for(self) -> dict[int, int]:
        """Edges ``waiter -> rank it needs a message from``."""
        return {b.rank: b.source for b in self.blocked}

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of the wait-for graph, each rotated to start at its min rank."""
        edges = self.wait_for()
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in sorted(edges):
            if start in seen:
                continue
            path: list[int] = []
            index: dict[int, int] = {}
            node = start
            while node in edges and node not in index:
                if node in seen:
                    break
                index[node] = len(path)
                path.append(node)
                node = edges[node]
            else:
                if node in index:  # closed a fresh cycle
                    cycle = path[index[node]:]
                    pivot = cycle.index(min(cycle))
                    out.append(tuple(cycle[pivot:] + cycle[:pivot]))
            seen.update(path)
        return out

    # -- rendering -------------------------------------------------------
    def describe(self, recent: int = 3) -> str:
        parks: dict[int, list[BlockedRank]] = {}
        for b in self.blocked:
            parks.setdefault(b.rank, []).append(b)
        table = Table(
            ["rank", "blocked on", "since", f"last {recent} events"],
            title=f"Deadlock forensics — {len(parks)}/{self.nprocs} ranks blocked",
        )
        for rank in sorted(parks):
            b = parks[rank][0]
            tail = "; ".join(_fmt_event(e) for e in b.recent[-recent:]) or "(no events)"
            waits = " | ".join(park.waiting_on() for park in parks[rank])
            table.add_row([f"P{rank}", waits, f"{b.since:g}", tail])
        lines = [table.render()]
        cycles = self.cycles()
        if cycles:
            rendered = ", ".join(
                " -> ".join(f"P{r}" for r in cycle + (cycle[0],)) for cycle in cycles
            )
            lines.append(f"wait-for cycles: {rendered}")
        else:
            lines.append(
                "wait-for graph is acyclic: some rank waits on a peer that "
                "terminated (or never sent)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "nprocs": self.nprocs,
            "blocked": [
                {
                    "rank": b.rank,
                    "source": b.source,
                    "tag": b.tag,
                    "since": b.since,
                    "deadline": b.deadline,
                    "recent": [list(e) for e in b.recent],
                }
                for b in sorted(self.blocked, key=lambda b: b.rank)
            ],
            "cycles": [list(c) for c in self.cycles()],
        }


def _fmt_event(e: RecentEvent) -> str:
    kind, start, end, peer, tag, detail = e
    where = f"@{start:g}" if start == end else f"@{start:g}..{end:g}"
    if kind in ("send", "recv", "wait"):
        arrow = "->" if kind == "send" else "<-"
        return f"{kind}{arrow}P{peer}(t{tag}){where}"
    body = f"({detail})" if detail else ""
    return f"{kind}{body}{where}"


def build_report(
    nprocs: int,
    waiting: dict[tuple[int, int, int], int],
    clocks: list[float],
    timed: dict[int, float],
    recent: list,
) -> DeadlockReport:
    """Assemble a report from engine wait state.

    *waiting* maps ``(source, dest, tag)`` channels to the parked rank,
    *timed* maps ranks to ack-timeout deadlines (empty for plain waits),
    and *recent* holds the per-rank ring buffers of event tuples.
    """
    blocked = tuple(
        BlockedRank(
            rank=rank,
            source=channel[0],
            tag=channel[2],
            since=clocks[rank],
            deadline=timed.get(rank),
            recent=tuple(recent[rank]),
        )
        for channel, rank in sorted(waiting.items(), key=lambda item: item[1])
    )
    return DeadlockReport(nprocs=nprocs, blocked=blocked)
