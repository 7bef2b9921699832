"""SPMD code generation (paper Figs 6 and 8).

The generator recognizes the paper's program classes by comparing the
program's canonical body with the paper's listings
(:mod:`~repro.codegen.patterns`), reads the family's row
(:mod:`~repro.codegen.families`) for a strategy (data-parallel blocks,
ring pipeline, cyclic pipeline) justified by the alignment and
dependence analyses, and emits a runnable Python SPMD program targeting
the :mod:`repro.machine` runtime (:mod:`~repro.codegen.spmd`).
"""

from repro.codegen.spmd import generate_spmd, load_generated

__all__ = ["generate_spmd", "load_generated"]
