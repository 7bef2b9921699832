"""Collective communication built from point-to-point messages.

These are the paper's §2.2 primitives realized as SPMD generator
functions.  Each operates over an explicit *group* — an ordered tuple of
ranks, typically a whole machine or one grid dimension
(:meth:`repro.machine.topology.Grid2D.dim_group`), matching the paper's
"processors lying on the specified grid dimension(s)".

Algorithms are the classic hypercube ones, so simulated costs match
Table 1 of the paper (the rows live in
:data:`repro.costmodel.primitives.TABLE1`, whose ``collective`` column
names the function here; ``tests/test_doc_tables.py`` keeps this table in
step with them):

===========================  =========================  =================
paper primitive              function                   cost shape
===========================  =========================  =================
Transfer(m)                  ``Proc.send`` / ``recv``   O(m)
Shift(m)                     :func:`shift`              O(m)
OneToManyMulticast(m, seq)   :func:`bcast`              O(m log P)
Reduction(m, seq)            :func:`reduce`             O(m log P)
AffineTransform(m, seq)      :func:`affine_transform`   O(m log P)
Scatter(m, seq)              :func:`scatter`            O(m P)
Gather(m, seq)               :func:`gather`             O(m P)
ManyToManyMulticast(m, seq)  :func:`allgather`          O(m P)
===========================  =========================  =================

(AffineTransform's shape is the paper's worst-case permutation routing;
the simulated exchange is one O(m) message per pair.)

All collectives must be invoked with ``yield from`` and called by *every*
member of the group, in the same order (standard SPMD contract).
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence
from typing import Any

import numpy as np

from repro.errors import CommunicationError
from repro.machine.engine import Proc


class Transport:
    """Pluggable point-to-point layer underneath the collectives.

    The base class forwards straight to the engine primitives
    (:meth:`Proc.send` / :meth:`Proc.recv`); the resilience layer
    substitutes :class:`repro.machine.resilient.ReliableTransport`, which
    adds sequence numbers, ack waits and retransmission without the
    collective algorithms changing at all.  ``send``, ``recv`` and
    ``complete`` return iterables driven with ``yield from``.  The plain
    implementations avoid one generator allocation per message: ``send``
    completes eagerly and returns an empty iterable, ``recv`` returns
    the engine's receive generator directly (a reliable send, by
    contrast, yields while parked for its ack).

    ``post_recv`` / ``complete`` split a receive so a kernel body can be
    written once in *post -> compute -> complete* order.  Here, and under
    the reliable transport, the post is free and ``complete`` is the
    blocking receive — the blocking order exactly;
    :class:`repro.machine.nonblocking.PostedTransport` makes them
    ``irecv`` and ``wait``, hiding the wire time behind the compute.
    """

    def send(
        self, p: Proc, dest: int, data: Any, words: int | None = None, tag: int = 0
    ) -> tuple:
        p.send(dest, data, words=words, tag=tag)
        return ()

    def recv(self, p: Proc, source: int, tag: int = 0) -> Generator[Any, None, Any]:
        return p.recv(source, tag=tag)

    def post_recv(self, p: Proc, source: int, tag: int = 0) -> Any:
        return source, tag  # the handle ``complete`` takes

    def complete(self, p: Proc, handle: Any) -> Generator[Any, None, Any]:
        source, tag = handle
        return self.recv(p, source, tag=tag)


#: Shared default transport (stateless).
PLAIN_TRANSPORT = Transport()


def _group_index(p: Proc, group: Sequence[int]) -> int:
    # Identity-layout groups (tuple(range(n)) — whole machine, ring rows)
    # are the overwhelming common case; rank == position resolves them in
    # O(1) where a .index() scan is O(|group|) per collective call, which
    # dominated N=1024+ profiles.
    r = p.rank
    if 0 <= r < len(group) and group[r] == r:
        return r
    try:
        return group.index(r)  # type: ignore[union-attr]
    except (ValueError, AttributeError):
        idx = [i for i, m in enumerate(group) if m == r]
        if not idx:
            raise CommunicationError(
                f"P{p.rank} is not a member of collective group {tuple(group)}"
            ) from None
        return idx[0]


def _root_index(group: Sequence[int], root: int) -> int:
    """Position of *root* in *group*, as a :class:`CommunicationError`.

    ``group.index(root)`` would raise a bare ``ValueError`` that escapes
    the machine-error hierarchy; rooted collectives use this instead.
    Identity-layout groups resolve in O(1) as in ``_group_index``.
    """
    if 0 <= root < len(group) and group[root] == root:
        return root
    for i, r in enumerate(group):
        if r == root:
            return i
    raise CommunicationError(
        f"root {root} is not a member of collective group {tuple(group)}"
    )


def _combine(a: Any, b: Any, op: Callable[[Any, Any], Any] | None, p: Proc) -> Any:
    """Merge two partial values, charging one flop per element."""
    result = a + b if op is None else op(a, b)
    words = int(a.size) if isinstance(a, np.ndarray) else 1
    p.compute(words, label="reduce-op")
    return result


def bcast(
    p: Proc,
    data: Any,
    root: int,
    group: Sequence[int],
    tag: int = 101,
    transport: Transport | None = None,
) -> Generator[Any, None, Any]:
    """OneToManyMulticast: binomial-tree broadcast from *root* over *group*.

    Returns the broadcast value on every member.
    """
    tx = transport or PLAIN_TRANSPORT
    n = len(group)
    me = _group_index(p, group)
    root_idx = _root_index(group, root)
    if n <= 1:
        return data
    rel = (me - root_idx) % n
    value = data if p.rank == root else None
    with p.scoped("bcast"):
        k = 1
        while k < n:
            if rel < k:
                peer_rel = rel + k
                if peer_rel < n:
                    yield from tx.send(p, group[(peer_rel + root_idx) % n], value, tag=tag)
            elif rel < 2 * k:
                src_rel = rel - k
                value = yield from tx.recv(p, group[(src_rel + root_idx) % n], tag=tag)
            k *= 2
    return value


def reduce(
    p: Proc,
    value: Any,
    root: int,
    group: Sequence[int],
    op: Callable[[Any, Any], Any] | None = None,
    tag: int = 102,
    transport: Transport | None = None,
) -> Generator[Any, None, Any]:
    """Reduction: binomial-tree reduce to *root*; returns result at root.

    *op* defaults to elementwise addition (the paper's inner-product
    reductions); it must be associative and commutative (§2.2).
    Non-root members return ``None``.
    """
    tx = transport or PLAIN_TRANSPORT
    n = len(group)
    me = _group_index(p, group)
    root_idx = _root_index(group, root)
    if n <= 1:
        return value
    rel = (me - root_idx) % n
    acc = value
    with p.scoped("reduce"):
        k = 1
        while k < n:
            if rel % (2 * k) == 0:
                peer_rel = rel + k
                if peer_rel < n:
                    other = yield from tx.recv(p, group[(peer_rel + root_idx) % n], tag=tag)
                    acc = _combine(acc, other, op, p)
            elif rel % (2 * k) == k:
                yield from tx.send(p, group[(rel - k + root_idx) % n], acc, tag=tag)
                return None
            k *= 2
    return acc if p.rank == root else None


def allreduce(
    p: Proc,
    value: Any,
    group: Sequence[int],
    op: Callable[[Any, Any], Any] | None = None,
    tag: int = 103,
    transport: Transport | None = None,
) -> Generator[Any, None, Any]:
    """Reduce to the group's first rank, then broadcast the result."""
    n = len(group)
    _group_index(p, group)
    if n <= 1:
        return value
    root = group[0]
    with p.scoped("allreduce"):
        partial = yield from reduce(p, value, root, group, op=op, tag=tag, transport=transport)
        result = yield from bcast(p, partial, root, group, tag=tag + 1, transport=transport)
    return result


def gather(
    p: Proc,
    value: Any,
    root: int,
    group: Sequence[int],
    tag: int = 104,
    transport: Transport | None = None,
) -> Generator[Any, None, list[Any] | None]:
    """Gather: root receives one value per member, in group order.

    Root serializes the receives, giving the paper's O(m * num(seq)) cost.
    """
    tx = transport or PLAIN_TRANSPORT
    _group_index(p, group)
    _root_index(group, root)
    if len(group) == 1:
        return [value]
    with p.scoped("gather"):
        if p.rank == root:
            out: list[Any] = []
            for member in group:
                if member == root:
                    out.append(value)
                else:
                    item = yield from tx.recv(p, member, tag=tag)
                    out.append(item)
            return out
        yield from tx.send(p, root, value, tag=tag)
    return None


def scatter(
    p: Proc,
    items: Sequence[Any] | None,
    root: int,
    group: Sequence[int],
    tag: int = 105,
    transport: Transport | None = None,
) -> Generator[Any, None, Any]:
    """Scatter: root sends ``items[i]`` to the i-th group member."""
    tx = transport or PLAIN_TRANSPORT
    _group_index(p, group)
    _root_index(group, root)
    if len(group) == 1:
        if items is None or len(items) != 1:
            raise CommunicationError("scatter needs exactly one item per group member")
        return items[0]
    with p.scoped("scatter"):
        if p.rank == root:
            if items is None or len(items) != len(group):
                raise CommunicationError(
                    f"scatter root needs {len(group)} items, "
                    f"got {None if items is None else len(items)}"
                )
            mine: Any = None
            for member, item in zip(group, items):
                if member == root:
                    mine = item
                else:
                    yield from tx.send(p, member, item, tag=tag)
            return mine
        value = yield from tx.recv(p, root, tag=tag)
    return value


def allgather(
    p: Proc,
    value: Any,
    group: Sequence[int],
    tag: int = 106,
    transport: Transport | None = None,
) -> Generator[Any, None, list[Any]]:
    """ManyToManyMulticast: ring allgather; returns values in group order.

    P-1 steps, each forwarding one block to the ring successor, for the
    paper's O(m * num(seq)) cost.
    """
    tx = transport or PLAIN_TRANSPORT
    n = len(group)
    me = _group_index(p, group)
    blocks: list[Any] = [None] * n
    blocks[me] = value
    if n == 1:
        return blocks
    right = group[(me + 1) % n]
    left = group[(me - 1) % n]
    with p.scoped("allgather"):
        for step in range(n - 1):
            send_idx = (me - step) % n
            recv_idx = (me - step - 1) % n
            yield from tx.send(p, right, blocks[send_idx], tag=tag)
            blocks[recv_idx] = yield from tx.recv(p, left, tag=tag)
    return blocks


def shift(
    p: Proc,
    data: Any,
    group: Sequence[int],
    delta: int = 1,
    tag: int = 107,
    transport: Transport | None = None,
) -> Generator[Any, None, Any]:
    """Shift: circular shift of data by *delta* positions along *group*.

    Every member sends to its ``+delta`` neighbor and receives from its
    ``-delta`` neighbor (paper's Shift along a grid dimension).
    """
    tx = transport or PLAIN_TRANSPORT
    n = len(group)
    me = _group_index(p, group)
    if n == 1 or delta % n == 0:
        return data
    dest = group[(me + delta) % n]
    src = group[(me - delta) % n]
    with p.scoped("shift"):
        yield from tx.send(p, dest, data, tag=tag)
        received = yield from tx.recv(p, src, tag=tag)
    return received


def affine_transform(
    p: Proc,
    data: Any,
    group: Sequence[int],
    transform: Callable[[int], int],
    tag: int = 108,
    transport: Transport | None = None,
) -> Generator[Any, None, Any]:
    """AffineTransform: permutation exchange over *group*.

    *transform* maps group positions to group positions and must be a
    bijection; each member sends its data to ``transform(position)`` and
    receives from the unique inverse position.
    """
    tx = transport or PLAIN_TRANSPORT
    n = len(group)
    me = _group_index(p, group)
    images = [transform(i) % n for i in range(n)]
    if sorted(images) != list(range(n)):
        raise CommunicationError("affine_transform mapping is not a permutation")
    dest_idx = images[me]
    src_idx = images.index(me)
    if dest_idx == me and src_idx == me:
        return data
    with p.scoped("affine"):
        if dest_idx != me:
            yield from tx.send(p, group[dest_idx], data, tag=tag)
        if src_idx != me:
            data = yield from tx.recv(p, group[src_idx], tag=tag)
    return data


def exchange(
    p: Proc,
    sends: Sequence[tuple[int, Any]],
    recv_from: Sequence[int],
    tag: int = 110,
    transport: Transport | None = None,
) -> Generator[Any, None, dict[int, Any]]:
    """Pairwise exchange: the irregular all-to-all building block.

    *sends* lists ``(dest, payload)`` pairs this rank contributes;
    *recv_from* lists the ranks it expects one payload from.  Both sides
    must agree on the pairing (the redistribution planner computes it
    deterministically on every rank).  Sends are posted before any
    receive, so any pairing is deadlock-free; at most one payload per
    (sender, receiver) pair under one tag.  A self-pair is delivered
    locally without touching the network.
    """
    tx = transport or PLAIN_TRANSPORT
    received: dict[int, Any] = {}
    with p.scoped("exchange"):
        for dest, payload in sends:
            if dest == p.rank:
                received[dest] = payload
            else:
                yield from tx.send(p, dest, payload, tag=tag)
        for src in recv_from:
            if src == p.rank:
                if src not in received:
                    raise CommunicationError(
                        f"P{p.rank} expects a self-payload it never posted"
                    )
                continue
            received[src] = yield from tx.recv(p, src, tag=tag)
    return received


def barrier(
    p: Proc,
    group: Sequence[int],
    tag: int = 109,
    transport: Transport | None = None,
) -> Generator[Any, None, None]:
    """Dissemination barrier: log P rounds of zero-word messages.

    After the barrier every member's clock is at least the group maximum at
    entry (clocks propagate through the message exchanges).
    """
    tx = transport or PLAIN_TRANSPORT
    n = len(group)
    me = _group_index(p, group)
    with p.scoped("barrier"):
        k = 1
        while k < n:
            yield from tx.send(p, group[(me + k) % n], None, tag=tag)
            yield from tx.recv(p, group[(me - k) % n], tag=tag)
            k *= 2
    return None
