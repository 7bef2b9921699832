"""Fortran-style Do-loop DSL: lexer, parser, IR and canned paper programs."""

from repro.lang.ast import DoLoop
from repro.lang.parser import parse_program
from repro.lang.printer import program_to_text
from repro.lang.programs import (
    gauss_program,
    jacobi_program,
    matmul_program,
    sor_program,
)

__all__ = [
    "DoLoop",
    "parse_program",
    "program_to_text",
    "jacobi_program",
    "sor_program",
    "gauss_program",
    "matmul_program",
]
