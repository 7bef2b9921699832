"""The named reference runs — each written once.

``report``'s modes, ``bench``'s compiler trace, the X14 benchmark and
the diagnostics tests all execute runs from this registry instead of
restating kernel, machine, sizes and seeds.  A row is a
:class:`NamedRun`; :data:`RUNS` maps its name to it.  Inputs are built
from seeds on every run, so a row is a value, not a cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import kernels
from repro.machine import BACKENDS, Grid2D, MachineModel, Ring, RunResult, Topology
from repro.machine.faults import FaultPlan
from repro.sparse.csr import random_spd_csr

#: The paper's machine (tf=1, tc=10; also ``MachineModel()``) and the X10
#: latency-bound machine of the overlap pairs.
MODEL = MachineModel(tf=1.0, tc=10.0)
HEAT_MODEL = MachineModel(tf=1.0, tc=10.0, alpha=100.0)

#: The seeded crash-free plan of ``--chaos`` and the ``jacobi`` drill.
_CHAOS_PLAN = FaultPlan(
    seed=42,
    delay_prob=0.15,
    delay_max=60.0,
    drop_prob=0.08,
    duplicate_prob=0.08,
    slowdown=((3, 1.5),),
)


@dataclass(frozen=True)
class NamedRun:
    """One reproducible simulator run: kernel, machine, size, seeded inputs."""

    name: str
    fn: Callable
    topology: Topology
    model: MachineModel
    m: int
    inputs: Callable[[int], tuple]
    kwargs: dict = field(default_factory=dict)
    faults: FaultPlan | None = None

    def args(self) -> tuple:
        """Fresh positional arguments for :attr:`fn` (size :attr:`m`)."""
        return self.inputs(self.m)

    def run(
        self, backend: str = "engine", *, model: MachineModel | None = None, trace: bool = True
    ) -> RunResult:
        """Execute on *backend*; *model* overrides the registered machine."""
        engine = BACKENDS[backend](
            self.topology, model=model or self.model, trace=trace, faults=self.faults
        )
        return engine.run(self.fn, args=self.args(), kwargs=dict(self.kwargs))

    __call__ = run


def _spd(seed: int, *tail) -> Callable[[int], tuple]:
    """``(A, b, x0 = 0, *tail)`` of the seeded diagonally dominant system."""
    def inputs(m: int) -> tuple:
        A, b, _ = kernels.make_spd_system(m, seed=seed)
        return (A, b, np.zeros(m), *tail)
    return inputs


def _gauss(m: int) -> tuple:
    return kernels.make_spd_system(m, seed=0)[:2]


def _cannon(size: int) -> tuple:
    rng = np.random.default_rng(0)
    return rng.random((size, size)), rng.random((size, size)), 2


def _sparse(n: int) -> tuple:
    csr = random_spd_csr(n, density=0.06, seed=42)
    return csr, np.random.default_rng(7).standard_normal(n)


def _heat(m: int) -> tuple:
    return np.random.default_rng(3).normal(size=m), 5


RUNS: dict[str, NamedRun] = {
    run.name: run
    for run in (
        # the Fig 5 run: --trace / --diagnose sor, the fig5_schedule section, bench's compiler trace
        NamedRun("sor", kernels.sor_pipelined, Ring(4), MachineModel(tf=1, tc=1), 16, _spd(2, 1.0, 1)),
        NamedRun("jacobi", kernels.jacobi_rowdist, Ring(4), MODEL, 32, _spd(2, 2)),
        NamedRun("cannon", kernels.cannon_matmul, Grid2D(2, 2), MODEL, 16, _cannon),
        NamedRun("spmv", kernels.spmv_parallel, Ring(8), MODEL, 128, _sparse, {"iterations": 3}),
        NamedRun("sparse-cg", kernels.sparse_cg_parallel, Ring(8), MODEL, 64, _sparse,
                 {"tol": 1e-8, "max_iterations": 8}),
        # the chaos drill: --chaos, --diagnose jacobi / jacobi-clean, --diff, X14
        NamedRun("jacobi-clean", kernels.resilient_jacobi, Ring(8), MODEL, 24, _spd(7, 6)),
        NamedRun("jacobi-chaos", kernels.resilient_jacobi, Ring(8), MODEL, 24, _spd(7, 6), faults=_CHAOS_PLAN),
        # the overlap pairs: --overlap; the heat pair also --diff and X14
        NamedRun("heat-blocking", kernels.heat_stencil_blocking, Ring(8), HEAT_MODEL, 256, _heat),
        NamedRun("heat-overlap", kernels.heat_stencil_overlap, Ring(8), HEAT_MODEL, 256, _heat),
        NamedRun("ring-jacobi-blocking", kernels.jacobi_ring_blocking, Ring(8), HEAT_MODEL, 64, _spd(3, 4)),
        NamedRun("ring-jacobi-overlap", kernels.jacobi_ring_overlap, Ring(8), HEAT_MODEL, 64, _spd(3, 4)),
        NamedRun("ring-sor-blocking", kernels.sor_pipelined, Ring(8), HEAT_MODEL, 64, _spd(3, 1.1, 4)),
        NamedRun("ring-sor-overlap", kernels.sor_pipelined_overlap, Ring(8), HEAT_MODEL, 64, _spd(3, 1.1, 4)),
        # the headline_measurements section (S5, S6)
        NamedRun("headline-sor-naive", kernels.sor_naive, Ring(8), MODEL, 64, _spd(0, 1.0, 2)),
        NamedRun("headline-sor-pipelined", kernels.sor_pipelined, Ring(8), MODEL, 64, _spd(0, 1.0, 2)),
        NamedRun("headline-gauss-broadcast", kernels.gauss_broadcast, Ring(16), MODEL, 96, _gauss),
        NamedRun("headline-gauss-pipelined", kernels.gauss_pipelined, Ring(16), MODEL, 96, _gauss),
    )
}
