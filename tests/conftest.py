"""Shared fixtures: small/fast configurations for the test suite."""

from __future__ import annotations

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming


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
