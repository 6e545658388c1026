"""DRAM substrate: timing, address mapping, banks, controller, refresh.

Import the modules themselves (``repro.dram.controller``,
``repro.dram.timing``, ...): this package re-exports nothing, so that
the refresh-policy registry (:mod:`repro.dram.refresh`) and the energy
records (:mod:`repro.dram.power`), which specs and results use, load
without the controller and banks.
"""
