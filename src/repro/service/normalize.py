"""Canonical form + content addressing for the loop-nest IR.

Two programs that the compiler cannot tell apart must hash identically;
two programs the compiler could treat differently must not.  The
canonicalization pass realizes the first half:

* **alpha-renaming** — arrays, parameters, scalars and loop indices are
  renamed to positional names (``a0``, ``p0``, ``w0``, ``i0``) in order
  of first use during a pre-order walk of the body, so the digest is
  independent of user spelling;
* **declaration order** — declarations are serialized sorted by their
  canonical names, so permuting ``PARAM``/``ARRAY`` lines does not
  change the digest;
* **commutative sorting** — chains of ``+`` and ``*`` are flattened and
  their operands sorted by canonical serialization, so ``a + b`` and
  ``b + a`` coincide (``-`` and ``/`` keep their order);
* **whitespace/comments** — already erased by parsing: the digest is
  computed from the IR, never the source text.

The machine parameters that the alignment/DP results depend on
(``tf``/``tc``/``alpha``/``hop_cost``/``overlap``, the processor count
``P`` and the parameter environment) are folded into the *solve* digest;
the *program* digest covers codegen only (which depends on the program
and the forced strategy alone).

Every digest is prefixed by :data:`IR_SCHEMA`; bumping it invalidates
all previously persisted cache entries at once (see docs/API.md,
"cache semantics").

The body's serializer (the first and third bullets, and their known
limit on blind-identical commutative operands) is
:mod:`repro.lang.canonical`, shared with the code generator's
recognizers; this module adds the declarations and the digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.lang.ast import Program
from repro.lang.canonical import _affine, serialize_body
from repro.machine.model import MachineModel

#: Version tag folded into every digest.  Bump on any change to the
#: canonical serialization, the Plan pickle layout or the compiler
#: semantics: all persisted cache entries become unreachable (a schema
#: bump is the invalidation story — stale entries are never *read*).
IR_SCHEMA = "repro-ir/1"


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical serialization of a program plus its rename map.

    ``rename`` maps every *declared* name (arrays, params, scalars) of
    the original program to its canonical name — the bridge that lets a
    cached plan compiled from one alpha-twin serve another (env and
    input keys are translated through the composition of two of these
    maps, see :meth:`repro.service.compiler.CompileResult.translate`).
    """

    text: str
    rename: dict[str, str]

    def digest(self, *extra: str) -> str:
        h = hashlib.sha256()
        h.update(IR_SCHEMA.encode())
        h.update(self.text.encode())
        for part in extra:
            h.update(b"\x00")
            h.update(part.encode())
        return h.hexdigest()

    def program_digest(self, strategy: str | None = None) -> str:
        """Content address of the codegen problem: canonical IR + strategy."""
        return self.digest(_strategy_part(strategy))

    def solve_digest(
        self,
        nprocs: int,
        env: dict[str, int],
        model: MachineModel,
        strategy: str | None = None,
        *,
        execute: bool = False,
    ) -> str:
        """Content address of the full compile: IR, strategy, machine, P, env.

        Environment keys are translated to canonical names, so alpha-twins
        solved under equivalent environments share the DP entry.  *execute*
        is folded in because an executed solve carries the extra validation
        payload.
        """
        items = sorted((self.rename.get(k, k), v) for k, v in env.items())
        env_part = " ".join(f"({k} {v!r})" for k, v in items)
        return self.digest(
            _strategy_part(strategy),
            _machine_part(model),
            f"(nprocs {nprocs})",
            f"(env {env_part})",
            f"(execute {int(execute)})",
        )


def canonicalize(program: Program) -> CanonicalForm:
    """Serialize *program* into its canonical text (see module doc)."""
    body, namer = serialize_body(program)

    # Declarations after the body: names are now fixed by use order, so
    # permuting declaration lines cannot perturb them.  Arrays never
    # referenced in the body are named here, ordered structurally.
    unused = sorted(
        (name for name in program.arrays if name not in namer.assigned),
        key=lambda n: (program.arrays[n].rank, n),
    )
    for name in unused:
        namer.canon(name, "array")
    arrays = []
    for name in sorted(program.arrays, key=lambda n: namer.canon(n, "array")):
        extents = " ".join(_affine(e, namer) for e in program.arrays[name].extents)
        arrays.append(f"({namer.canon(name, 'array')} {extents})")
    params = sorted(namer.canon(p, "param") for p in program.params)
    scalars = sorted(namer.canon(s, "scalar") for s in program.scalars)
    directives = sorted(
        f"({namer.canon(name, 'array')} {' '.join(spec)})"
        for name, spec in program.directives.items()
    )
    alignments = sorted(
        f"(({namer.canon(sa, 'array')} {sd}) ({namer.canon(ta, 'array')} {td}))"
        for (sa, sd), (ta, td) in program.alignments
    )

    text = (
        f"(program (params {' '.join(params)})"
        f" (scalars {' '.join(scalars)})"
        f" (arrays {' '.join(arrays)})"
        f" (distribute {' '.join(directives)})"
        f" (align {' '.join(alignments)})"
        f" (body {body}))"
    )
    rename = {
        name: canon
        for name, canon in namer.assigned.items()
        if namer.role.get(name) in ("array", "param", "scalar")
    }
    # Declared-but-unused params/scalars still need stable entries so
    # env translation on a cache hit never drops a key.
    for name in program.params:
        if name not in rename:
            rename[name] = namer.canon(name, "param")
    for name in program.scalars:
        if name not in rename:
            rename[name] = namer.canon(name, "scalar")
    if any(name not in rename for name in program.arrays):  # pragma: no cover
        raise AssertionError("canonicalize left an array unnamed")
    return CanonicalForm(text=text, rename=rename)


def _machine_part(model: MachineModel) -> str:
    return (
        f"(machine {model.tf!r} {model.tc!r} {model.alpha!r} "
        f"{model.hop_cost!r} {int(model.overlap)})"
    )


def _strategy_part(strategy: str | None) -> str:
    return f"(strategy {strategy or '-'})"


def program_digest(
    program: Program,
    strategy: str | None = None,
    *,
    form: CanonicalForm | None = None,
) -> str:
    """:meth:`CanonicalForm.program_digest` of *program*.

    Pass *form* to reuse an already-computed :func:`canonicalize` result.
    """
    return (form or canonicalize(program)).program_digest(strategy)


def solve_digest(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
    strategy: str | None = None,
    *,
    execute: bool = False,
    form: CanonicalForm | None = None,
) -> str:
    """:meth:`CanonicalForm.solve_digest` of *program* (or of *form*)."""
    return (form or canonicalize(program)).solve_digest(
        nprocs, env, model, strategy, execute=execute
    )
