"""CPU substrate: the interval core model (:mod:`repro.cpu.core`).

This package re-exports nothing; import the module itself.
"""
