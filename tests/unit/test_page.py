"""Unit tests for PhysicalMemory frame bookkeeping."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.dram.address import AddressMapping
from repro.errors import AllocationError
from repro.os.page import PhysicalMemory


@pytest.fixture
def memory():
    mapping = AddressMapping(DramOrganization(), total_rows_per_bank=8)
    return PhysicalMemory(mapping)


def test_geometry(memory):
    assert memory.total_frames == 16 * 8
    assert memory.total_banks == 16
    assert memory.frames_per_bank == 8


def test_claim_and_release(memory):
    memory.claim(5, task_id=42)
    assert memory.owner(5) == 42
    assert memory.used_frames() == 1
    memory.release(5)
    assert memory.owner(5) == -1
    assert memory.used_frames() == 0


def test_double_claim_raises(memory):
    memory.claim(5, 1)
    with pytest.raises(AllocationError):
        memory.claim(5, 2)


def test_release_free_frame_raises(memory):
    with pytest.raises(AllocationError):
        memory.release(0)


def test_bank_of_frame_matches_mapping(memory):
    for frame in range(memory.total_frames):
        assert memory.bank_of_frame(frame) == memory.mapping.frame_to_bank_index(
            frame
        )
