"""Data-dependence analysis: tests, distance vectors, and per-token info.

The §6 technique rests on knowing, for every communicated data *token*,
the iteration-space direction along which successive uses advance; this
package computes that (:mod:`~repro.dependence.tokens`) together with
classic pairwise dependence information (:mod:`~repro.dependence.analysis`)
and the underlying decision procedures (:mod:`~repro.dependence.tests`).
"""

__all__ = []
