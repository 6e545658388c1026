"""repro — reproduction of "Hardware-Software Co-design to Mitigate DRAM
Refresh Overheads: A Case for Refresh-Aware Process Scheduling"
(Kotra et al., ASPLOS 2017).

Public API
----------
:mod:`repro.api` is the single supported public surface::

    from repro import api

    result = api.run(workload="WL-6", scenario="codesign")
    results = api.sweep(["WL-6", "WL-8"], api.available_scenarios())

It covers one-shot runs, local cached sweeps, submission to a running
sweep service (``python -m repro serve`` — see ``docs/SERVICE.md``),
warm-starting, and result diffing.  The names below remain importable
from ``repro`` for compatibility; each is imported on first access, so
``import repro`` itself loads no simulator code.

:class:`~repro.telemetry.Telemetry` / :func:`build_system_from_spec`
    The observability layer: attach event sinks (ring buffer, JSONL,
    Chrome trace, wire) and snapshot metrics — ``docs/OBSERVABILITY.md``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

import importlib

__version__ = "2.0.0"

#: Each compatibility name -> the module that defines it, imported on
#: first access (:func:`lazy_exports`).
_EXPORTS = {
    "api": "repro.api",
    "run_spec": "repro.core.simulator",
    "make_run_spec": "repro.core.simulator",
    "RunSpec": "repro.core.runspec",
    "compare_scenarios": "repro.core.simulator",
    "build_system": "repro.core.simulator",
    "build_system_from_spec": "repro.core.simulator",
    "MetricsRegistry": "repro.telemetry.registry",
    "Telemetry": "repro.telemetry.hub",
    "available_scenarios": "repro.core.simulator",
    "available_workloads": "repro.core.simulator",
    "SystemConfig": "repro.config.system_configs",
    "default_system_config": "repro.config.system_configs",
    "RunResult": "repro.core.results",
    "TaskResult": "repro.core.results",
    "System": "repro.core.system",
    "Scenario": "repro.config.scenarios",
    "SCENARIOS": "repro.config.scenarios",
    "BenchmarkSpec": "repro.workloads.benchmark",
    "WORKLOAD_MIXES": "repro.workloads.mixes",
    "workload_mix": "repro.workloads.mixes",
}

__all__ = [*_EXPORTS, "__version__"]


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) for the package whose globals
    are *namespace*: a name of *exports* is imported from its module on
    first access and bound in *namespace*, so later lookups are plain
    attribute reads.  A name whose module is the package's submodule of
    that name (``repro.api``) resolves to the submodule itself."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module_name)
        if module_name != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = lazy_exports(globals(), _EXPORTS)
