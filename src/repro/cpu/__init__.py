"""CPU substrate: the interval core model."""

from repro.cpu.core import Core

__all__ = ["Core"]
