"""Paper-style Fortran listings of the generated SPMD programs.

The paper presents its generated code as Fortran-like listings (Fig 6 for
SOR, Fig 8 for Gauss).  :func:`fortran_listing` renders the same programs
in that style — numbered lines, ``do``/``continue`` loops, and the
``send_to_right`` / ``receive_from_left`` runtime calls — from a
recognized pattern, so the repository can reproduce the figures *as
figures* in addition to the executable Python form.
"""

from __future__ import annotations

from repro.codegen.patterns import GaussPattern, IterativeSolvePattern
from repro.codegen.spmd import GeneratedProgram
from repro.errors import CodegenError


def _number(lines: list[str]) -> str:
    return "\n".join(f"{idx:3}  {line}" for idx, line in enumerate(lines, start=1))


def _sor_listing(pat: IterativeSolvePattern) -> str:
    A, B, X, V = pat.A, pat.B, pat.X, pat.V
    omega = pat.omega or "1.0"
    lines = [
        "{* Let m be the problem size, N be the number *}",
        "{* of processors, and block = m / N. *}",
        f"REAL {A}(m, block), {X}(block), {B}(block), {V}(m)",
        "me = who_am_i()  {* Return current processor's ID. *}",
        "before = me * block",
        "do 44 k = 1, MAX_ITERATION",
        "  do 15 i = 1, before",
        "    temp = 0.0",
        "    do 11 j = 1, block",
        f"      temp = temp + {A}(i, j) * {X}(j)",
        "11  continue",
        f"    receive_from_left( {V}(i) )",
        f"    {V}(i) = {V}(i) + temp",
        f"    send_to_right( {V}(i) )",
        "15  continue",
        "  do 23 i = 1, block",
        "    current = before + i",
        f"    {V}(current) = 0.0",
        "    do 21 j = i, block",
        f"      {V}(current) = {V}(current) + {A}(current, j) * {X}(j)",
        "21  continue",
        f"    send_to_right( {V}(current) )",
        "23  continue",
        "  do 34 i = 1, block",
        "    current = before + i",
        "    temp = 0.0",
        "    do 29 j = 1, i - 1",
        f"      temp = temp + {A}(current, j) * {X}(j)",
        "29  continue",
        f"    receive_from_left( {V}(current) )",
        f"    {V}(current) = {V}(current) + temp",
        f"    {X}(i) = {X}(i) + {omega} *",
        f"      ( {B}(i) - {V}(current) ) / {A}(current, i)",
        "34  continue",
        "  do 43 i = (me + 1) * block + 1, m",
        "    temp = 0.0",
        "    do 39 j = 1, block",
        f"      temp = temp + {A}(i, j) * {X}(j)",
        "39  continue",
        f"    receive_from_left( {V}(i) )",
        f"    {V}(i) = {V}(i) + temp",
        f"    send_to_right( {V}(i) )",
        "43  continue",
        "44 continue",
    ]
    return _number(lines)


def _gauss_listing(pat: GaussPattern) -> str:
    A, L, B, V, X = pat.A, pat.L, pat.B, pat.V, pat.X
    lines = [
        "{* Let m be the problem size, N be the number *}",
        "{* of processors, and block = m / N (cyclic rows). *}",
        f"REAL {A}(block, m), {L}(block, m), {X}(block), {B}(block)",
        f"REAL {V}(block), Apipeline(m), Xpipeline, Bpipeline",
        "me = who_am_i()  {* Return current processor's ID. *}",
        "{* Matrix triangularization. *}",
        "do 15 k = 1, m",
        "  if (owner(k) = me) then",
        "    pivot = local(k)",
        f"    send_to_right( {A}(pivot, k..m), {B}(pivot) )",
        "  else",
        "    receive_from_left( Apipeline(k..m), Bpipeline )",
        "    if (right <> owner(k)) send_to_right( Apipeline(k..m), Bpipeline )",
        "  endif",
        "  do 15 i = rows_below(k)",
        f"    {L}(i, k) = {A}(i, k) / Apipeline(k)",
        f"    {B}(i) = {B}(i) - {L}(i, k) * Bpipeline",
        "    do 15 j = k + 1, m",
        f"      {A}(i, j) = {A}(i, j) - {L}(i, k) * Apipeline(j)",
        "15 continue",
        f"{{* Triangular linear system U {X} = Y. *}}",
        "do 18 i = block, 1, -1",
        f"  {V}(i) = 0.0",
        "18 continue",
        "do 30 j = m, 1, -1",
        "  if (owner(j) = me) then",
        "    pivot = local(j)",
        f"    {X}(pivot) = ( {B}(pivot) - {V}(pivot) ) / {A}(pivot, j)",
        f"    send_to_left( {X}(pivot) )",
        "    Xpipeline = X(pivot)",
        "  else",
        "    receive_from_right( Xpipeline )",
        "    if (left <> owner(j)) send_to_left( Xpipeline )",
        "  endif",
        "  do 30 i = rows_above(j)",
        f"    {V}(i) = {V}(i) + {A}(i, j) * Xpipeline",
        "30 continue",
    ]
    return _number(lines)


def _jacobi_listing(pat: IterativeSolvePattern) -> str:
    A, B, X, V = pat.A, pat.B, pat.X, pat.V
    lines = [
        "{* Let m be the problem size, N be the number *}",
        "{* of processors, and block = m / N (row blocks). *}",
        f"REAL {A}(block, m), {X}(m), {B}(block), {V}(block)",
        "me = who_am_i()",
        "before = me * block",
        "do 13 k = 1, MAX_ITERATION",
        "  do 9 i = 1, block",
        f"    {V}(i) = 0.0",
        "    do 8 j = 1, m",
        f"      {V}(i) = {V}(i) + {A}(i, j) * {X}(j)",
        "8   continue",
        "9 continue",
        "  do 11 i = 1, block",
        f"    {X}(before + i) = {X}(before + i) +",
        f"      ( {B}(i) - {V}(i) ) / {A}(i, before + i)",
        "11 continue",
        f"  many_to_many_multicast( {X}(before + 1 .. before + block) )",
        "13 continue",
    ]
    return _number(lines)


def fortran_listing(gen: GeneratedProgram) -> str:
    """Paper-style Fortran listing for a generated program."""
    from repro.codegen.families import family_of  # its rows hold this module's listings

    listing = family_of(gen).listings.get(gen.strategy)
    if listing is None:
        raise CodegenError(f"no paper listing exists for the {gen.strategy!r} strategy")
    return listing(gen.pattern)
