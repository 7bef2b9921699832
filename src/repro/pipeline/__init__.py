"""Pipelining and scheduling passes (paper §5-§6, plus irregular sweeps).

Affine passes: pipeline schedules/mappings and broadcast elimination,
stencil overlap rewriting.  Irregular pass: the inspector/executor
communication-schedule compiler (:mod:`repro.pipeline.inspector`,
docs/SPARSE.md).
"""

__all__ = []
