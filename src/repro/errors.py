"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-hierarchies mirror
the subsystems described in DESIGN.md.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class LanguageError(ReproError):
    """Base class for errors in the Do-loop DSL front end."""


class LexError(LanguageError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """Raised when the parser encounters a malformed program."""

    def __init__(self, message: str, line: int = -1, column: int = -1) -> None:
        loc = f" (line {line}, column {column})" if line >= 0 else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class AffineError(LanguageError):
    """Raised when an expression is required to be affine but is not."""


class MachineError(ReproError):
    """Base class for errors in the machine simulator."""


class TopologyError(MachineError):
    """Raised for invalid topology configurations or rank arithmetic."""


class DeadlockError(MachineError):
    """Raised when the engine detects that no processor can make progress.

    Carries the set of blocked ranks and what each was waiting for so that
    tests and users can diagnose communication mismatches.  When the
    engine could reconstruct the full picture, ``report`` holds a
    :class:`repro.machine.forensics.DeadlockReport` with the per-rank
    wait-for graph, blocked channels and the last trace events per rank
    (``report.py --deadlock`` renders it).
    """

    def __init__(self, blocked: dict[int, str], report=None) -> None:
        detail = ", ".join(f"P{r}: {w}" for r, w in sorted(blocked.items()))
        super().__init__(f"deadlock: all live processors blocked ({detail})")
        self.blocked = dict(blocked)
        self.report = report


class CommunicationError(MachineError):
    """Raised for invalid point-to-point or collective usage."""


class FaultError(MachineError):
    """Base class for errors produced by the fault-injection layer."""


class RankCrashedError(FaultError):
    """Raised when an injected crash kills a rank mid-run.

    The resilient supervisor (:func:`repro.machine.resilient.run_resilient`)
    catches this, disables the fired crash and restarts the program from
    its last consistent checkpoint.
    """

    def __init__(self, rank: int, at_time: float) -> None:
        super().__init__(f"P{rank} crashed at simulated time {at_time:g}")
        self.rank = rank
        self.at_time = at_time


class PeerCrashedError(FaultError):
    """Raised when a nonblocking request waits on a crashed rank.

    Unlike a deadlock, this carries the :class:`CrashFault
    <repro.machine.faults.CrashFault>` that killed the peer, so the
    waiter knows *why* no message will ever come.  The resilient
    supervisor treats it, like :class:`RankCrashedError`, as a crash
    symptom and restarts the run.
    """

    def __init__(self, rank: int, crash) -> None:
        super().__init__(
            f"P{rank} waits on P{crash.rank}, which crashed at simulated "
            f"time {crash.at_time:g}"
        )
        self.rank = rank
        self.crash = crash


class RetryExhaustedError(FaultError):
    """Raised when a reliable transfer gives up after its last retry."""

    def __init__(self, source: int, dest: int, tag: int, attempts: int) -> None:
        super().__init__(
            f"reliable send P{source}->P{dest} (tag {tag}) unacknowledged "
            f"after {attempts} attempts"
        )
        self.source = source
        self.dest = dest
        self.tag = tag
        self.attempts = attempts


class ServiceError(ReproError):
    """Base class for errors raised by the compile-service layer."""


class WorkerCrashedError(ServiceError):
    """Raised when a supervised compile worker dies and the retry budget
    is exhausted.

    Carries the forensic tail the supervisor collected: the worker's
    spawn ``argv``, the content digest of the last in-flight request,
    the process exit status (negative = killed by that signal), and how
    many attempts/respawns were burned before giving up.  With
    ``degrade=True`` (the default) :class:`repro.service.CompileService`
    catches this and falls back to in-process compilation — the error
    only surfaces when degradation is disabled or the pool is driven
    directly.
    """

    def __init__(
        self,
        worker: int,
        pid: int | None,
        exitcode: int | None,
        argv: list[str],
        request_digest: str,
        attempts: int,
        respawns: int,
    ) -> None:
        status = "unknown" if exitcode is None else str(exitcode)
        super().__init__(
            f"compile worker {worker} (pid {pid}) died with exit status "
            f"{status} serving request {request_digest[:12]} "
            f"({attempts} attempt(s), {respawns} respawn(s)); argv: {argv}"
        )
        self.worker = worker
        self.pid = pid
        self.exitcode = exitcode
        self.argv = list(argv)
        self.request_digest = request_digest
        self.attempts = attempts
        self.respawns = respawns


class ServiceOverloadedError(ServiceError):
    """Raised when the bounded admission queue sheds a new request.

    The service refuses work instead of queueing without bound; callers
    should back off and resubmit.  ``depth`` is the number of admitted,
    unfinished jobs at rejection time and ``limit`` the configured bound.
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"service overloaded: {depth} queued jobs >= admission limit "
            f"{limit}; retry later or raise queue_limit"
        )
        self.depth = depth
        self.limit = limit


class DeadlineExceededError(ServiceError):
    """Raised when a compile request misses its deadline.

    On the process-pool tier the straggling worker is killed and
    respawned (the request is *cancelled*, not orphaned); on
    :meth:`repro.service.compiler.CompileJob.wait` a still-pending job
    is cancelled so no worker ever picks it up.
    """

    def __init__(self, what: str, deadline_s: float, detail: str = "") -> None:
        tail = f" ({detail})" if detail else ""
        super().__init__(f"{what} exceeded deadline of {deadline_s:g}s{tail}")
        self.deadline_s = deadline_s


class TraceError(ReproError, ValueError):
    """Raised when recorded telemetry cannot be used: a malformed
    ``repro-obs/1`` event file, or an untraced run handed to a pass that
    reads its trace.  (A ``ValueError`` too — what these paths raised
    before they were typed.)"""


class DistributionError(ReproError):
    """Raised for invalid distribution-function configurations."""


class AlignmentError(ReproError):
    """Raised when component alignment fails or constraints are violated."""


class DependenceError(ReproError):
    """Raised when dependence analysis is asked an unsupported question."""


class CodegenError(ReproError):
    """Raised when SPMD code generation cannot lower a program."""


class CostModelError(ReproError):
    """Raised for invalid cost-model queries."""
