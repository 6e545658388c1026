"""DRAM substrate: timing, address mapping, banks, controller, refresh.

Import the modules themselves (``repro.dram.controller``,
``repro.dram.timing``, ...): this package re-exports nothing, so that
the refresh-policy names (:mod:`repro.dram.refresh`), which specs use,
load without the controller, the banks and the schedulers.
"""
