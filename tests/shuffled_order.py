"""Seeded shuffles of the engine's ready order: the order contract's oracle.

The paper's machine has buffered sends and receives that name their
source, so every value, clock and trace lane is independent of the order
in which ready ranks run.  :func:`shuffled` checks that reproducibly: the
engine it returns pops a seeded-random ready rank where the event engine
pops the oldest.  Timeouts keep their ``(deadline, rank)`` order and
ready work still drains before one fires — those are semantics, not
order.  A failure names its seed, and the same seed replays it.

The base is the draining backend (``ThreadedEngine``) unless given: the
event engine's own rule, "raise the first error in ready order", is
order-dependent by design.
"""

from __future__ import annotations

import random

from repro.machine.engine import Engine
from repro.machine.threaded import ThreadedEngine

#: The seeds every shuffled check runs under.
SEEDS = (1, 2, 3)


class RandomPop:
    """The ready container's interface (``append``, ``popleft``,
    ``__len__``), popping a seeded-random element instead of the oldest."""

    __slots__ = ("_items", "_rng", "append")

    def __init__(self, seed: int) -> None:
        self._items: list[int] = []
        self._rng = random.Random(seed)
        self.append = self._items.append

    def popleft(self) -> int:
        items = self._items
        index = self._rng.randrange(len(items))
        items[index], items[-1] = items[-1], items[index]
        return items.pop()

    def __len__(self) -> int:
        return len(self._items)


def shuffled(seed: int, base: type[Engine] = ThreadedEngine) -> type[Engine]:
    """*base* whose every run pops its ready ranks in *seed*'s order."""

    class Shuffled(base):
        def _reset_run_state(self) -> None:
            super()._reset_run_state()
            ready = RandomPop(seed)
            self._calendar.ready = ready
            self._calendar.push_ready = ready.append

    return Shuffled
