"""The simulation kernel loads with a process's first simulation.

Resolving, serving and submitting specs needs only the data, cache,
wire and service layers.  Each check starts a fresh interpreter, since
the test process itself has long since loaded everything:

* the set-up path of a served sweep (``import repro``, the Figure-10
  and a warm-started matrix through ``api.sweep_specs``, a
  ``SweepService`` on a thread and a client ping) loads the data layer
  only: no kernel module, no refresh scheduler, no checkpoint-state
  codec, no energy model, sampler or event class, no HTTP server and
  no process pool;
* a client process, and the ``submit`` command, load neither
  ``asyncio`` nor the server nor any of the above;
* the first job the service executes loads the kernel, and its result
  is the direct run's;
* a restarted service that serves a sweep wholly from the disk cache
  starts no executor thread;
* ``make_scheduler`` imports the one scheduler module it builds from;
* every compatibility name resolves, on first access, to the object its
  defining module holds.
"""

from __future__ import annotations

import importlib
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.service
import repro.telemetry
from repro.core.simulator import make_run_spec, run_spec
from repro.serialize import canonical_json

SRC = Path(repro.__file__).resolve().parents[1]

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

#: The refresh scheduler modules: imported one at a time, by
#: ``make_scheduler``, when a simulation first builds one.
SCHEDULERS = (
    "repro.dram.refresh.base",
    "repro.dram.refresh.no_refresh",
    "repro.dram.refresh.all_bank",
    "repro.dram.refresh.per_bank_rr",
    "repro.dram.refresh.same_bank",
    "repro.dram.refresh.ooo_per_bank",
    "repro.dram.refresh.adaptive",
    "repro.dram.refresh.elastic",
    "repro.dram.refresh.pausing",
)

#: Modules the set-up path must not load: the kernel (engine, system,
#: controller and banks, cores, OS layer, refresh schedulers, the
#: checkpoint-state codecs, the address mapping, the energy model and
#: the telemetry hub, registry, stats and sampler), the event classes,
#: the local sweep runner, and the stdlib modules only the metrics side
#: port, process pools and did-you-mean hints need.
NOT_ON_SETUP_PATH = (
    "repro.core.system",
    "repro.core.engine",
    "repro.core.state",
    "repro.cpu",
    "repro.cpu.core",
    "repro.os",
    "repro.dram.address",
    "repro.dram.controller",
    "repro.dram.bank",
    "repro.dram.power",
    "repro.dram.request",
    *SCHEDULERS,
    "repro.telemetry.events",
    "repro.telemetry.hub",
    "repro.telemetry.registry",
    "repro.telemetry.stats",
    "repro.telemetry.timeseries",
    "repro.experiments.runner",
    "http.server",
    "multiprocessing",
    "concurrent.futures.process",
    "difflib",
)

#: The most ``repro`` modules the set-up path may load.
SETUP_PATH_MODULES = 36

KERNEL = ("repro.core.system", "repro.core.engine", "repro.dram.controller")

SETUP_PATH = f"""
import json, sys, tempfile, threading
import repro
from repro import api

specs = [
    spec
    for density in (16, 24, 32)
    for spec in api.sweep_specs(
        [f"WL-{{i}}" for i in range(1, 11)], ["all_bank", "per_bank", "codesign"],
        seed=1, refresh_scale=1024, num_windows=1.0, warmup_windows=0.25,
        density_gbit=density,
    )
]
specs += api.sweep_specs(
    ["WL-6", "WL-1"], ["per_bank", "codesign", "elastic", "partition_only"],
    refresh_scale=1024, num_windows=1.0, warmup_windows=1.5,
    warmup_scenario="per_bank",
)
assert len(specs) == 98

from repro.serialize import canonical_json
from repro.service import ServiceClient, SweepService, serve_in_thread

cache_dir = tempfile.mkdtemp()
service = SweepService(cache_dir=cache_dir)
server, thread = serve_in_thread(service)
client = ServiceClient(port=server.port, timeout=120)
assert client.ping()["type"] == "pong"
before = sorted(sys.modules)

spec = api.make_run_spec("WL-9", "per_bank", **{FAST!r})
result, source = client.submit(spec)
client.shutdown()
client.close()
thread.join(timeout=60)

restart = SweepService(cache_dir=cache_dir)
server, thread = serve_in_thread(restart)
with ServiceClient(port=server.port, timeout=120) as client:
    outcome = client.sweep(specs=[spec])
    threads = sorted(t.name for t in threading.enumerate())
    client.shutdown()
thread.join(timeout=60)
print(json.dumps({{
    "before": before, "after": sorted(sys.modules), "source": source,
    "result": canonical_json(result),
    "restart_sources": list(outcome.sources.values()), "restart_threads": threads,
}}))
"""


def _fresh(code: str) -> str:
    """Run *code* in a fresh interpreter that imports this checkout's
    ``repro``; returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(modules, names) -> list[str]:
    """The *modules* among *names*, in the CPU or OS layer, or in the
    refresh package below its table of names."""
    return sorted(
        m for m in modules
        if m in names or m.startswith(("repro.cpu.", "repro.os.", "repro.dram.refresh."))
    )


@pytest.fixture(scope="module")
def served():
    return json.loads(_fresh(SETUP_PATH).splitlines()[-1])


def _repro(modules) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


def test_the_setup_path_of_a_served_sweep_loads_no_kernel(served):
    assert _loaded(served["before"], NOT_ON_SETUP_PATH) == []


def test_the_setup_path_loads_only_the_data_layer(served):
    assert len(_repro(served["before"])) <= SETUP_PATH_MODULES, _repro(served["before"])


def test_the_first_executed_job_loads_the_kernel_and_matches_a_direct_run(served):
    assert served["source"] == "executed"
    assert set(KERNEL).isdisjoint(served["before"])
    assert set(KERNEL) <= set(served["after"])
    assert served["result"] == canonical_json(run_spec(make_run_spec("WL-9", "per_bank", **FAST)))


def test_a_restart_sweep_served_from_disk_starts_no_executor_thread(served):
    assert served["restart_sources"] == ["cache"]
    assert served["restart_threads"] == ["MainThread", "repro-service"]


def test_a_client_loads_neither_asyncio_nor_the_server():
    code = """
import socket, sys
from repro.service.client import ServiceClient
from repro import api
from repro.errors import ServiceUnavailable

probe = socket.socket()
probe.bind(("127.0.0.1", 0))
port = probe.getsockname()[1]
probe.close()
spec = api.make_run_spec("WL-9", "per_bank")
try:
    api.submit(spec, port=port)
except ServiceUnavailable:
    pass
else:
    raise SystemExit("a closed port accepted a submission")
print(" ".join(sorted(sys.modules)))
"""
    modules = _fresh(code).split()
    assert "repro.service.client" in modules
    assert [m for m in modules if m in ("asyncio", "repro.service.server")] == []
    assert _loaded(modules, NOT_ON_SETUP_PATH) == []


@pytest.mark.parametrize("live", [False, True], ids=["closed_port", "live_server"])
def test_the_submit_command_loads_neither_the_kernel_nor_the_server(live, tmp_path):
    """``python -m repro submit --ping`` under ``-X importtime``, to a
    closed port and to a live server.  The CI ``service`` job runs this
    test as its client-import check, so this file keeps the one list."""
    if live:
        service = repro.service.SweepService(cache_dir=tmp_path / "cache")
        server, thread = repro.service.serve_in_thread(service)
        port = server.port
    else:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    try:
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "submit", "--ping",
             "--port", str(port)],
            env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        if live:
            server.stop()
            thread.join(timeout=10)
    if live:
        assert done.returncode == 0, done.stderr
        assert '"pong"' in done.stdout
    else:
        assert done.returncode == 1, done.stderr
        assert "cannot reach repro service" in done.stderr
    modules = [
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.service.client" in modules
    assert [m for m in modules if m in ("asyncio", "repro.service.server")] == []
    assert _loaded(modules, NOT_ON_SETUP_PATH) == []
    assert "repro.core.simulator" not in modules


def test_make_scheduler_imports_only_the_scheduler_it_builds():
    code = """
import sys
from repro.dram.refresh import make_scheduler
make_scheduler("same_bank")
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro.dram.refresh."))))
"""
    assert _fresh(code).split() == ["repro.dram.refresh.base", "repro.dram.refresh.same_bank"]


@pytest.mark.parametrize(
    "package", [repro, repro.service, repro.telemetry], ids=lambda p: p.__name__
)
def test_every_public_name_resolves_to_its_defining_module(package):
    code = f"""
import importlib, sys
import {package.__name__} as package
assert not any(name in vars(package) for name in package._EXPORTS), "resolved eagerly"
for name, module_name in package._EXPORTS.items():
    value = getattr(package, name)
    module = importlib.import_module(module_name)
    if module_name == package.__name__ + "." + name:
        assert value is module, name
    else:
        assert value is vars(module)[name], name
        assert getattr(value, "__module__", module_name) == module_name, name
namespace = {{}}
exec("from {package.__name__} import *", namespace)
assert set(namespace) - {{"__builtins__"}} == set(package.__all__), namespace.keys()
for name in package.__all__:
    assert namespace[name] is getattr(package, name), name
print("ok")
"""
    assert _fresh(code).strip() == "ok"


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(repro, "nope")
    assert not hasattr(repro.service, "nope")
    assert not hasattr(repro.telemetry, "nope")


def test_moved_names_stay_importable_at_their_old_paths():
    scenarios = importlib.import_module("repro.config.scenarios")
    system = importlib.import_module("repro.core.system")
    partition = importlib.import_module("repro.os.partition")
    server = importlib.import_module("repro.service.server")
    wire = importlib.import_module("repro.telemetry.wire")
    assert system.Scenario is scenarios.Scenario
    assert system.SCENARIOS is scenarios.SCENARIOS
    assert system.scenario is scenarios.scenario
    assert partition.PartitionPolicy is scenarios.PartitionPolicy
    assert server.DEFAULT_PORT == wire.DEFAULT_PORT == 7341
    assert repro.System is system.System
    assert repro.service.SweepService is server.SweepService
