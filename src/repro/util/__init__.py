"""Shared utilities: table rendering, number formatting, span profiling."""

from repro.util.fmt import eng, fixed, ratio
from repro.util.spans import (
    SpanRecorder,
    current_recorder,
    recording,
    span,
    spanned,
)
from repro.util.tables import Table, render_grid

__all__ = [
    "Table",
    "render_grid",
    "eng",
    "fixed",
    "ratio",
    "SpanRecorder",
    "current_recorder",
    "recording",
    "span",
    "spanned",
]
