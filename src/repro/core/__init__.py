"""Simulation core: event engine, full-system wiring, metrics, results."""

from repro.core.engine import Engine

__all__ = ["Engine"]
