"""Trace-context propagation: one id from compile request to rank lanes.

The repo records four disconnected telemetry artifacts — compiler
wall-clock spans (:mod:`repro.util.spans`), supervised-worker forensics
(:mod:`repro.service.supervisor`), simulated rank traces/metrics
(:mod:`repro.machine`), and bench records.  A :class:`TraceContext` is
the thread that stitches them: minted when the compile service digests a
:class:`~repro.service.compiler.CompileRequest`, carried across the
pickled worker-task protocol, installed around
:meth:`~repro.service.compiler.CompileResult.run`, and stamped into
``Metrics.obs`` by both engines at the end of every run — so a single
``run_id`` links compile → cache → worker → simulated ranks → bench
record (docs/OBSERVABILITY.md).

This module is deliberately a leaf (stdlib only): the machine engines
import it, and everything else imports the machine.

Run ids are deterministic within a process — a per-process counter plus
the request digest prefix — never wall-clock or random, so repeated
runs of the same driver mint the same ids (exports stay comparable).
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass, replace

_seq = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """The correlation identity of one compile-and-run story.

    ``run_id`` is the primary key; ``request_digest`` names the
    content-addressed plan the id was minted for (empty for contexts
    minted outside the service); ``parent`` chains nested contexts
    (e.g. a batch id over its per-request children).
    """

    run_id: str
    request_digest: str = ""
    parent: str = ""

    def as_dict(self) -> dict:
        """JSON/pickle-ready form (the shape carried in worker tasks)."""
        out = {"run_id": self.run_id}
        if self.request_digest:
            out["request_digest"] = self.request_digest
        if self.parent:
            out["parent"] = self.parent
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            run_id=str(data["run_id"]),
            request_digest=str(data.get("request_digest", "")),
            parent=str(data.get("parent", "")),
        )

    def child(self, run_id: str) -> "TraceContext":
        """A nested context whose ``parent`` is this context's run id."""
        return replace(self, run_id=run_id, parent=self.run_id)

    def stamp(self, metrics) -> None:
        """Write the correlation keys into a ``Metrics.obs`` group."""
        metrics.obs["run_id"] = self.run_id
        if self.request_digest:
            metrics.obs["request_digest"] = self.request_digest
        if self.parent:
            metrics.obs["parent"] = self.parent


def mint_context(request_digest: str = "", parent: str = "") -> TraceContext:
    """Mint a fresh context with a deterministic per-process run id."""
    n = next(_seq)
    suffix = f"-{request_digest[:8]}" if request_digest else ""
    return TraceContext(
        run_id=f"run-{n:04d}{suffix}",
        request_digest=request_digest,
        parent=parent,
    )


_current: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """The installed :class:`TraceContext`, or None outside any."""
    return _current.get()


class tracing_context:
    """Install *ctx* for the enclosed block (no-op when *ctx* is None).

    A slotted class rather than a ``@contextmanager`` generator, like
    :meth:`repro.machine.engine.Proc.scoped`: the compile service enters
    one per request.  ``with`` yields *ctx*.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> TraceContext | None:
        ctx = self._ctx
        if ctx is not None:
            self._token = _current.set(ctx)
        return ctx

    def __exit__(self, *exc: object) -> None:
        token = self._token
        if token is not None:
            self._token = None
            _current.reset(token)


def stamp_current(metrics) -> None:
    """Stamp the installed context (if any) into ``metrics.obs``.

    Called by both engines at the end of every run; free (one
    context-variable read) when no context is installed.
    """
    ctx = _current.get()
    if ctx is not None:
        ctx.stamp(metrics)
