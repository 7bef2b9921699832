"""Shared utilities: table rendering, number formatting, span profiling."""

__all__ = []
