"""The generatable program families, one row each.

A row states everything that follows from *which family a program is*:
how it is recognized (the paper listings of
:data:`repro.codegen.patterns.TEMPLATES`, or a structural recognizer for
the stencil sweeps), the strategies it admits with their emitters (the
first is the default), and what the emitted program needs to run — its
``env`` keys, fabricated default inputs, topology and paper-style
listing.  :func:`repro.codegen.spmd.generate_spmd`,
:meth:`~repro.codegen.spmd.GeneratedProgram.env_keys`,
:func:`~repro.codegen.fortran_listing.fortran_listing` and
:meth:`repro.service.plan.Plan.run` look their answer up here.

Every recognized pattern names its row: ``pattern.kind`` is a key of
:data:`FAMILIES`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from math import isqrt

import numpy as np

from repro.codegen.fortran_listing import _gauss_listing, _jacobi_listing, _sor_listing
from repro.codegen.overlap import emit_stencil_overlap
from repro.codegen.patterns import TEMPLATES, match_templates
from repro.codegen.spmd import (
    GeneratedProgram,
    _emit_cannon,
    _emit_gauss,
    _emit_jacobi,
    _emit_sor,
)
from repro.codegen.stencil import emit_stencil, match_stencil_sweep
from repro.codegen.stencil2d import emit_stencil_2d, match_stencil_2d
from repro.errors import CodegenError, ReproError
from repro.kernels.linalg import make_spd_system
from repro.lang.ast import Program
from repro.machine.topology import Grid2D, Ring


@dataclass(frozen=True)
class Family:
    """One row of :data:`FAMILIES`."""

    name: str
    #: admissible strategy -> ``emitter(pattern)``; the first is the default
    strategies: dict[str, Callable[[object], GeneratedProgram]]
    #: listing -> its pattern; a family without listings has ``recognise``
    templates: dict[str, object] = field(default_factory=dict)
    recognise: Callable[[Program], object | None] | None = None
    env_keys: Callable[[object], tuple[str, ...]] = lambda pattern: ()
    #: ``(pattern, m, env, seed) -> inputs`` for a run without ``inputs=``
    inputs: Callable[[object, int, dict, int], dict] | None = None
    topology: Callable[[int], object] = Ring
    #: strategy -> paper-style Fortran listing of the emitted program
    listings: dict[str, Callable[[object], str]] = field(default_factory=dict)

    def match(self, program: Program, body: tuple) -> object | None:
        """The family's pattern of *program* (*body*: its ``body_of``)."""
        if self.recognise is not None:
            return self.recognise(program)
        return match_templates(self.templates, body)

    def emit(self, pattern: object, strategy: str | None) -> GeneratedProgram:
        """Emit *pattern* under the forced *strategy*, or the family's default."""
        emitter = self.strategies.get(strategy or next(iter(self.strategies)))
        if emitter is None:
            raise CodegenError(f"strategy {strategy!r} not applicable to {self.name}")
        return emitter(pattern)


def _system_inputs(pat, m: int, env: dict, seed: int) -> dict:
    A, b, _ = make_spd_system(m, seed=seed)
    return {pat.A: A, pat.B: b}


def _solver_inputs(pat, m: int, env: dict, seed: int) -> dict:
    inputs = _system_inputs(pat, m, env, seed)
    inputs["X0"] = np.zeros(m)
    inputs["iterations"] = env.get(pat.iterations, env.get("maxiter", 10))
    if pat.omega:
        inputs[pat.omega] = 1.1
    return inputs


def _matmul_inputs(pat, m: int, env: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {pat.left: rng.random((m, m)), pat.right: rng.random((m, m))}


def _square_torus(nprocs: int) -> Grid2D:
    q = isqrt(nprocs)
    if q * q != nprocs:
        raise ReproError(
            f"strategy 'cannon' runs on a square q x q grid: nprocs must be "
            f"a perfect square, got {nprocs}"
        )
    return Grid2D(q, q)


_SOLVER = dict(
    env_keys=lambda pat: (pat.A, pat.B, "X0", "iterations", *([pat.omega] if pat.omega else [])),
    inputs=_solver_inputs,
    listings={"data-parallel": _jacobi_listing, "ring-pipeline": _sor_listing},
)

_ROWS = (
    Family(
        "jacobi",
        {"data-parallel": _emit_jacobi, "ring-pipeline": _emit_sor},
        TEMPLATES["jacobi"],
        **_SOLVER,
    ),
    Family(
        "sor",
        {"ring-pipeline": _emit_sor, "data-parallel": _emit_jacobi},
        TEMPLATES["sor"],
        **_SOLVER,
    ),
    Family(
        "matmul",
        {"cannon": _emit_cannon},
        TEMPLATES["matmul"],
        env_keys=lambda pat: (pat.left, pat.right),
        inputs=_matmul_inputs,
        topology=_square_torus,
    ),
    Family(
        "gauss",
        {s: partial(_emit_gauss, strategy=s) for s in ("cyclic-pipeline", "cyclic-multicast")},
        TEMPLATES["gauss"],
        env_keys=lambda pat: (pat.A, pat.B),
        inputs=_system_inputs,
        listings={"cyclic-pipeline": _gauss_listing, "cyclic-multicast": _gauss_listing},
    ),
    Family(
        "stencil",
        {"stencil": emit_stencil, "stencil-overlap": emit_stencil_overlap},
        recognise=match_stencil_sweep,
    ),
    Family("stencil-2d", {"stencil-2d": emit_stencil_2d}, recognise=match_stencil_2d),
)

#: ``pattern.kind`` -> row, in recognition order.
FAMILIES: dict[str, Family] = {row.name: row for row in _ROWS}
_NO_FAMILY = Family("none", {})


def family_of(gen: GeneratedProgram) -> Family:
    """The row *gen* was generated from.  A program of no family (a sparse
    or redistribution listing) gets a row of defaults: no env keys, no
    fabricated inputs, a ring, no paper listing."""
    return FAMILIES.get(getattr(gen.pattern, "kind", None), _NO_FAMILY)
