"""Deterministic distributed-memory machine simulator.

This package is the substrate that stands in for the paper's
iPSC/nCUBE-class hardware (see DESIGN.md §2).  SPMD programs are Python
generator functions ``def prog(p: Proc): ...`` executed by a discrete-event
engine; point-to-point messages actually carry data (so numerics are real)
while per-processor clocks advance according to a
:class:`~repro.machine.model.MachineModel` with the paper's ``tf`` (time per
flop) and ``tc`` (time per transferred word) parameters.
"""

from repro.machine.collectives import (
    PLAIN_TRANSPORT,
    Transport,
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    reduce,
    scatter,
    shift,
)
from repro.machine.critpath import CriticalPathReport, PathStep, critical_path
from repro.machine.engine import (
    ACK_TAG_BASE,
    TIMED_OUT,
    Engine,
    Proc,
    RunResult,
    run_spmd,
)
from repro.machine.export import (
    chrome_trace_json,
    match_messages,
    merge_events,
    write_chrome_trace,
)
from repro.machine.faults import CrashFault, FaultPlan, FaultState, MessageFate
from repro.machine.forensics import BlockedRank, DeadlockReport
from repro.machine.metrics import GroupStats, Metrics, RankMetrics
from repro.machine.nonblocking import (
    NBComm,
    PostedTransport,
    RecvRequest,
    Request,
    SendRequest,
    waitall,
    waitany,
)
from repro.machine.resilient import (
    CheckpointStore,
    ReliableSendRequest,
    ReliableTransport,
    ResilientResult,
    RetryPolicy,
    run_resilient,
)
from repro.machine.threaded import BACKENDS, ThreadedEngine, run_spmd_threaded
from repro.machine.model import MachineModel
from repro.machine.topology import (
    Grid2D,
    Grid3D,
    Hypercube,
    Linear,
    Ring,
    Topology,
    gray_code,
)

__all__ = [
    "Engine",
    "Proc",
    "RunResult",
    "run_spmd",
    "Metrics",
    "RankMetrics",
    "GroupStats",
    "critical_path",
    "CriticalPathReport",
    "PathStep",
    "chrome_trace_json",
    "merge_events",
    "write_chrome_trace",
    "match_messages",
    "ThreadedEngine",
    "run_spmd_threaded",
    "BACKENDS",
    "MachineModel",
    "Topology",
    "Ring",
    "Linear",
    "Grid2D",
    "Grid3D",
    "Hypercube",
    "gray_code",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "shift",
    "barrier",
    "Transport",
    "PLAIN_TRANSPORT",
    "ACK_TAG_BASE",
    "TIMED_OUT",
    "FaultPlan",
    "FaultState",
    "CrashFault",
    "MessageFate",
    "DeadlockReport",
    "BlockedRank",
    "ReliableTransport",
    "ReliableSendRequest",
    "RetryPolicy",
    "CheckpointStore",
    "ResilientResult",
    "run_resilient",
    "NBComm",
    "PostedTransport",
    "Request",
    "SendRequest",
    "RecvRequest",
    "waitall",
    "waitany",
]
