"""repro — reproduction of Lee & Tsai, ICPP 1993.

*Compiling Efficient Programs for Tightly-Coupled Distributed Memory
Computers* (TR-93-004, Academia Sinica).

The library provides the paper's full compilation pipeline plus the
substrate it needs:

* :mod:`repro.lang` — Fortran-style Do-loop DSL and IR;
* :mod:`repro.machine` — deterministic distributed-memory simulator
  (processors, topologies, message passing, Table 1 collectives);
* :mod:`repro.distribution` — the generalized distribution functions of
  §2.1 (block/cyclic/replicated, increasing/decreasing, rotated 2-D);
* :mod:`repro.alignment` — component affinity graphs + alignment (§3);
* :mod:`repro.costmodel` — Table 1 primitive costs, closed forms, and the
  rule-based loop-nest estimator;
* :mod:`repro.dp` — Algorithm 1, the dynamic program over distribution
  schemes (§4);
* :mod:`repro.dependence` — dependence tests, distance vectors, and the
  per-token analysis of Table 5 (§6);
* :mod:`repro.pipeline` — pipelining: Fig 5 schedules, index-processor
  mappings, broadcast-to-shift rewriting (§5-§6);
* :mod:`repro.codegen` — SPMD code generation (Figs 6, 8);
* :mod:`repro.service` — the compile service: content-addressed plan
  cache, front-end guests, batch + job-queue compilation;
* :mod:`repro.kernels` — sequential references and hand-written SPMD
  kernels used to validate everything end to end.

Quick start (the stable facade, :mod:`repro.api`)::

    from repro import Session, jacobi_program

    with Session() as session:
        res = session.compile(jacobi_program(), nprocs=4,
                              env={"m": 32, "maxiter": 10})
        result = res.run()
        print(res.explain())

or, stateless::

    from repro import compile_program
    plan = compile_program(jacobi_program())
    result = plan.run(4, {"m": 32, "maxiter": 10})

The pre-service top-level entry points (``compile_and_run``,
``solve_program_distribution``, ``generate_spmd``, ``run_spmd``) have
been removed; see the migration table in :mod:`repro.api` and
docs/API.md.
"""

from __future__ import annotations

__version__ = "0.2.0"

from repro.errors import ReproError
from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    parse_program,
    program_to_text,
    sor_program,
)
from repro.machine import (
    Grid2D,
    Hypercube,
    Linear,
    MachineModel,
    Proc,
    Ring,
    RunResult,
)
from repro.distribution import Dist1D, Dist2D, Kind, Scheme
from repro.alignment import build_cag, exact_alignment, greedy_alignment
from repro.dp import algorithm1
from repro.codegen import load_generated
from repro.api import (
    CompileRequest,
    CompileResult,
    Plan,
    Session,
    compile_program,
)

__all__ = [
    "__version__",
    "ReproError",
    "parse_program",
    "program_to_text",
    "jacobi_program",
    "sor_program",
    "gauss_program",
    "matmul_program",
    "MachineModel",
    "Proc",
    "RunResult",
    "Ring",
    "Linear",
    "Grid2D",
    "Hypercube",
    "Dist1D",
    "Dist2D",
    "Kind",
    "Scheme",
    "build_cag",
    "exact_alignment",
    "greedy_alignment",
    "algorithm1",
    "load_generated",
    "Plan",
    "Session",
    "CompileRequest",
    "CompileResult",
    "compile_program",
]
