"""Shared fixtures (small, fast configurations) and a bare-controller helper."""

from __future__ import annotations

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming


class BareDram:
    """A bare memory controller (no refresh scheduler) over one channel of
    2 ranks x 8 banks with 64 rows per bank, driven one access at a time.

    ``at(t)`` runs every event up to cycle *t* and moves the clock there;
    ``access`` and ``refresh`` act at the current cycle; ``run`` drains
    the engine.  A served request carries its CAS time (``start_time``),
    ``finish_time``, ``row_hit`` and ``refresh_stall``.
    """

    def __init__(self, timing, subarrays=1, row_policy="open", controller=MemoryController):
        self.timing = timing
        self.engine = Engine()
        org = DramOrganization(subarrays_per_bank=subarrays)
        mapping = AddressMapping(org, total_rows_per_bank=64)
        self.mc = controller(self.engine, timing, org, mapping, row_policy=row_policy)

    @property
    def bank(self):
        """Bank 0 of rank 0, where accesses go unless told otherwise."""
        return self.mc.banks[0]

    def at(self, time):
        self.engine.run_until(time)
        return self

    def access(self, row, bank=0, rank=0, is_read=True, column=0):
        """Enqueue one read (or write) now; returns the request."""
        rtype = RequestType.READ if is_read else RequestType.WRITE
        request = MemoryRequest(rtype, 0, DramCoordinate(0, rank, bank, row, column))
        self.mc.enqueue(request)
        return request

    def refresh(self, trfc, subarray=None):
        """Refresh bank 0 of rank 0 (or one of its subarrays) as soon as
        it can start; returns the cycle the refresh ends."""
        return self.mc.refresh_bank(0, 0, 0, trfc, subarray=subarray)

    def act_times(self):
        """Rank 0's last four ACT times, oldest first."""
        return self.mc.ranks[(0, 0)]._act_times

    def run(self):
        self.engine.run()


@pytest.fixture
def fast_config():
    """Aggressively scaled config: tiny retention window, tiny memory."""
    return default_system_config(refresh_scale=1024, capacity_scale=4096)


@pytest.fixture
def timing(fast_config):
    return DramTiming.from_config(fast_config)


@pytest.fixture
def organization():
    return DramOrganization()


@pytest.fixture
def mapping(organization):
    return AddressMapping(organization, total_rows_per_bank=64)


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def controller(engine, timing, organization, mapping):
    return MemoryController(engine, timing, organization, mapping)


@pytest.fixture
def hash_calls(monkeypatch):
    """Every content hash computed while the test runs: the canonical
    texts passed to ``repro.serialize.text_hash``, in call order."""
    import repro.serialize

    calls = []
    original = repro.serialize.text_hash

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(repro.serialize, "text_hash", counting)
    return calls
