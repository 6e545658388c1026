"""Simulation core: event engine, full-system wiring, specs, metrics, results.

Import the modules themselves (``repro.core.engine``,
``repro.core.system``, ...): this package re-exports nothing, so that
importing one of its data modules (specs, results, checkpoints) does
not load the simulation kernel.
"""
