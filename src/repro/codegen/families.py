"""The generatable program families, one row each.

A row states everything that follows from *which family a program is*:
how it is recognized (the paper listings of
:data:`repro.codegen.patterns.TEMPLATES`, or a structural recognizer for
the stencil sweeps), the strategies it admits with their emitters (the
first is the default), and what the emitted program needs to run — its
``env`` keys, fabricated default inputs, topology, paper-style listing
and what it needs of its inputs and processor count in order to be right
(:attr:`Family.needs`, checked by ``Plan.run`` before any rank runs).  :func:`repro.codegen.spmd.generate_spmd`,
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
from repro.codegen.stencil import emit_stencil, match_stencil
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
    #: ``(pattern, env, seed) -> inputs`` for a run without ``inputs=``, at
    #: the size the pattern's arrays are declared with
    inputs: Callable[[object, dict, int], dict] | None = None
    topology: Callable[[int], object] = Ring
    #: strategy -> paper-style Fortran listing of the emitted program
    listings: dict[str, Callable[[object], str]] = field(default_factory=dict)
    #: ``(pattern, inputs, nprocs) -> unmet need | None``: what the emitted
    #: program needs, of the inputs it reads and the processor count, in
    #: order to be right
    needs: Callable[[object, dict, int], str | None] = lambda pattern, inputs, nprocs: None

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

    def check(self, gen: GeneratedProgram, inputs: dict, nprocs: int) -> None:
        """Raise :class:`CodegenError` unless *gen* is right on *inputs* and
        *nprocs* processors."""
        unmet = self.needs(gen.pattern, inputs, nprocs)
        if unmet:
            raise CodegenError(f"strategy {gen.strategy!r} is right only when {unmet}")


def _read(values: dict, name: str):
    """``values[name]``: an env's size or sweep-count parameter, or an
    input the emitted program reads."""
    if name not in values:
        raise ReproError(f"no value for {name!r}, which the generated program needs")
    return values[name]


def _blocks(m: int, nprocs: int, halo: int = 0) -> str | None:
    """Unmet need of a program cutting ``1 .. m`` into N blocks whose
    neighbours send it up to *halo* elements each way (on one processor
    nothing is sent)."""
    if m % nprocs:
        return f"N | m, got m = {m}, N = {nprocs}"
    if nprocs > 1 and halo > m // nprocs:
        return f"each halo fits one block, got halo {halo} > m / N = {m} / {nprocs}"
    return None


def _torus(n: int, nprocs: int) -> str | None:
    q = isqrt(nprocs)
    if q * q != nprocs:
        return f"nprocs is a q x q perfect square, got {nprocs}"
    return None if n % q == 0 else f"q | n, got n = {n}, q = {q}"


def _stencil_needs(pat, inputs: dict, nprocs: int) -> str | None:
    halo = max(width for pair in pat.halo.values() for width in pair)
    return _blocks(int(_read(inputs, pat.size_param)), nprocs, halo)


def _system_inputs(pat, env: dict, seed: int) -> dict:
    A, b, _ = make_spd_system(_read(env, pat.m), seed=seed)
    return {pat.A: A, pat.B: b}


def _solver_inputs(pat, env: dict, seed: int) -> dict:
    inputs = _system_inputs(pat, env, seed)
    inputs["X0"] = np.zeros(len(inputs[pat.B]))
    inputs["iterations"] = _read(env, pat.iterations)
    if pat.omega:
        inputs[pat.omega] = 1.1
    return inputs


def _matmul_inputs(pat, env: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = _read(env, pat.n)
    return {pat.left: rng.random((n, n)), pat.right: rng.random((n, n))}


_SOLVER = dict(
    env_keys=lambda pat: (pat.A, pat.B, "X0", "iterations", *([pat.omega] if pat.omega else [])),
    inputs=_solver_inputs,
)

_ROWS = (
    Family("jacobi", {"data-parallel": _emit_jacobi}, TEMPLATES["jacobi"], **_SOLVER,
           listings={"data-parallel": _jacobi_listing}),
    Family(
        "sor",
        {"ring-pipeline": _emit_sor},
        TEMPLATES["sor"],
        **_SOLVER,
        listings={"ring-pipeline": _sor_listing},
        needs=lambda pat, inputs, nprocs: _blocks(len(_read(inputs, pat.B)), nprocs),
    ),
    Family(
        "matmul",
        {"cannon": _emit_cannon},
        TEMPLATES["matmul"],
        env_keys=lambda pat: (pat.left, pat.right),
        inputs=_matmul_inputs,
        topology=lambda nprocs: Grid2D(isqrt(nprocs), isqrt(nprocs)),
        needs=lambda pat, inputs, nprocs: _torus(len(_read(inputs, pat.left)), nprocs),
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
        recognise=partial(match_stencil, rank=1),
        needs=_stencil_needs,
    ),
    Family("stencil-2d", {"stencil-2d": emit_stencil}, recognise=partial(match_stencil, rank=2), needs=_stencil_needs),
)

#: ``pattern.kind`` -> row, in recognition order.
FAMILIES: dict[str, Family] = {row.name: row for row in _ROWS}
_NO_FAMILY = Family("none", {})


def family_of(gen: GeneratedProgram) -> Family:
    """The row *gen* was generated from.  A program of no family (a sparse
    or redistribution listing) gets a row of defaults: no env keys, no
    fabricated inputs, a ring, no paper listing."""
    return FAMILIES.get(getattr(gen.pattern, "kind", None), _NO_FAMILY)
