"""Dynamic programming for data distribution (paper §4, Algorithm 1)."""

from repro.dp.algorithm1 import algorithm1
from repro.dp.phases import PhaseTables, build_phase_tables, solve_program_distribution

__all__ = [
    "algorithm1",
    "PhaseTables",
    "build_phase_tables",
    "solve_program_distribution",
]
