"""Unit tests for the configurable address layouts."""

import pytest

from repro.config.dram_configs import LAYOUTS, DramOrganization
from repro.dram.address import AddressMapping
from repro.errors import AddressMapError, ConfigError


@pytest.fixture
def org():
    return DramOrganization()


def test_unknown_layout_rejected(org):
    with pytest.raises(AddressMapError):
        AddressMapping(org, 16, layout="zigzag")


def test_config_validates_layout():
    from repro.config.system_configs import default_system_config

    with pytest.raises(ConfigError):
        default_system_config(address_layout="zigzag")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_roundtrip_every_layout(org, layout):
    mapping = AddressMapping(org, 8, layout=layout)
    for frame in range(mapping.total_frames):
        coord = mapping.frame_to_coordinate(frame)
        assert mapping.coordinate_to_frame(coord) == frame


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_balance_every_layout(org, layout):
    mapping = AddressMapping(org, 8, layout=layout)
    counts: dict[int, int] = {}
    for frame in range(mapping.total_frames):
        bank = mapping.frame_to_bank_index(frame)
        counts[bank] = counts.get(bank, 0) + 1
    assert set(counts.values()) == {8}


def test_interleaved_stripes_banks(org):
    mapping = AddressMapping(org, 8, layout="interleaved")
    banks = [mapping.frame_to_coordinate(f).bank for f in range(8)]
    assert banks == list(range(8))


def test_bank_contiguous_keeps_rows_together(org):
    mapping = AddressMapping(org, 8, layout="bank_contiguous")
    coords = [mapping.frame_to_coordinate(f) for f in range(8)]
    assert all(c.bank == 0 and c.rank == 0 for c in coords)
    assert [c.row for c in coords] == list(range(8))


def test_rank_interleaved_alternates_ranks_before_banks(org):
    mapping = AddressMapping(org, 8, layout="rank_interleaved")
    c0 = mapping.frame_to_coordinate(0)
    c1 = mapping.frame_to_coordinate(1)
    assert (c0.rank, c0.bank) == (0, 0)
    assert (c1.rank, c1.bank) == (1, 0)


def test_layouts_affect_baseline_bank_spread_end_to_end():
    """With the bank-oblivious allocator, the interleaved layout spreads a
    task across all banks while bank_contiguous concentrates it — the
    hardware mapping is what decides baseline interference."""
    from repro.core.simulator import build_system

    spread = {}
    for layout in ("interleaved", "bank_contiguous"):
        system = build_system(
            "WL-9", "all_bank", refresh_scale=1024, address_layout=layout
        )
        task = next(t for t in system.tasks if len(t.frames) >= 16)
        spread[layout] = len(task.pages_per_bank)
    assert spread["interleaved"] == 16
    assert spread["bank_contiguous"] < spread["interleaved"]
