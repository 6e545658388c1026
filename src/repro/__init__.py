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
from ``repro`` for compatibility.

:class:`~repro.telemetry.Telemetry` / :func:`build_system_from_spec`
    The observability layer: attach event sinks (ring buffer, JSONL,
    Chrome trace, wire) and snapshot metrics — ``docs/OBSERVABILITY.md``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.config.system_configs import SystemConfig, default_system_config
from repro.core.results import RunResult, TaskResult
from repro.core.runspec import RunSpec
from repro.core.simulator import (
    available_scenarios,
    available_workloads,
    build_system,
    build_system_from_spec,
    compare_scenarios,
    make_run_spec,
    run_spec,
)
from repro.telemetry import MetricsRegistry, Telemetry
from repro.core.system import SCENARIOS, Scenario, System
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.mixes import WORKLOAD_MIXES, workload_mix
from repro import api

__version__ = "2.0.0"

__all__ = [
    "api",
    "run_spec",
    "make_run_spec",
    "RunSpec",
    "compare_scenarios",
    "build_system",
    "build_system_from_spec",
    "MetricsRegistry",
    "Telemetry",
    "available_scenarios",
    "available_workloads",
    "SystemConfig",
    "default_system_config",
    "RunResult",
    "TaskResult",
    "System",
    "Scenario",
    "SCENARIOS",
    "BenchmarkSpec",
    "WORKLOAD_MIXES",
    "workload_mix",
    "__version__",
]
