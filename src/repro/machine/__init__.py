"""Deterministic distributed-memory machine simulator.

This package is the substrate that stands in for the paper's
iPSC/nCUBE-class hardware (see DESIGN.md §2).  SPMD programs are Python
generator functions ``def prog(p: Proc): ...`` executed by a discrete-event
engine; point-to-point messages actually carry data (so numerics are real)
while per-processor clocks advance according to a
:class:`~repro.machine.model.MachineModel` with the paper's ``tf`` (time per
flop) and ``tc`` (time per transferred word) parameters.
"""

from repro.machine.collectives import allgather, allreduce, bcast, reduce, shift
from repro.machine.critpath import critical_path
from repro.machine.engine import TIMED_OUT, Proc, RunResult, run_spmd
from repro.machine.export import chrome_trace_json, write_chrome_trace
from repro.machine.nonblocking import NBComm, waitall, waitany
from repro.machine.resilient import CheckpointStore, run_resilient
from repro.machine.threaded import BACKENDS
from repro.machine.model import MachineModel
from repro.machine.topology import Grid2D, Hypercube, Linear, Ring, Topology

__all__ = [
    "Proc",
    "RunResult",
    "run_spmd",
    "critical_path",
    "chrome_trace_json",
    "write_chrome_trace",
    "BACKENDS",
    "MachineModel",
    "Topology",
    "Ring",
    "Linear",
    "Grid2D",
    "Hypercube",
    "bcast",
    "reduce",
    "allreduce",
    "allgather",
    "shift",
    "TIMED_OUT",
    "CheckpointStore",
    "run_resilient",
    "NBComm",
    "waitall",
    "waitany",
]
