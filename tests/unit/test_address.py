"""Unit tests for the address mapping."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.dram.address import AddressMapping, DramCoordinate
from repro.errors import AddressMapError


@pytest.fixture
def mapping():
    return AddressMapping(DramOrganization(), total_rows_per_bank=64)


def test_total_frames(mapping):
    assert mapping.total_frames == 1 * 2 * 8 * 64
    assert mapping.total_bytes == mapping.total_frames * 4096


def test_consecutive_frames_stripe_across_banks(mapping):
    # The DRAM-oblivious layout: frames 0..7 land in banks 0..7 of rank 0.
    banks = [mapping.frame_to_coordinate(f).bank for f in range(8)]
    assert banks == list(range(8))
    # Frame 8 wraps to bank 0 of the next rank.
    coord = mapping.frame_to_coordinate(8)
    assert (coord.rank, coord.bank) == (1, 0)


def test_frame_roundtrip(mapping):
    for frame in range(0, mapping.total_frames, 13):
        coord = mapping.frame_to_coordinate(frame)
        assert mapping.coordinate_to_frame(coord) == frame


def test_frame_out_of_range(mapping):
    with pytest.raises(AddressMapError):
        mapping.frame_to_coordinate(mapping.total_frames)
    with pytest.raises(AddressMapError):
        mapping.frame_to_coordinate(-1)


def test_address_decodes_column(mapping):
    address = mapping.frame_offset_to_address(5, 3 * 64)
    coord = mapping.address_to_coordinate(address)
    assert coord.column == 3
    assert coord.bank == mapping.frame_to_coordinate(5).bank


def test_address_out_of_range(mapping):
    with pytest.raises(AddressMapError):
        mapping.address_to_coordinate(mapping.total_bytes)


def test_offset_out_of_page(mapping):
    with pytest.raises(AddressMapError):
        mapping.frame_offset_to_address(0, 4096)


def test_flat_bank_index_roundtrip(mapping):
    for flat in range(16):
        channel, rank, bank = mapping.unflatten_bank_index(flat)
        assert mapping.flat_bank_index(channel, rank, bank) == flat


def test_flat_bank_order_is_rank_major(mapping):
    # Flat banks 0..7 = rank 0, 8..15 = rank 1 (matches stretch order).
    assert mapping.unflatten_bank_index(0) == (0, 0, 0)
    assert mapping.unflatten_bank_index(7) == (0, 0, 7)
    assert mapping.unflatten_bank_index(8) == (0, 1, 0)
    assert mapping.unflatten_bank_index(15) == (0, 1, 7)


def test_frame_to_bank_index_consistency(mapping):
    for frame in range(0, mapping.total_frames, 7):
        coord = mapping.frame_to_coordinate(frame)
        assert mapping.frame_to_bank_index(frame) == mapping.flat_bank_index(
            coord.channel, coord.rank, coord.bank
        )


def test_frames_distribute_evenly_across_banks(mapping):
    counts = {}
    for frame in range(mapping.total_frames):
        counts[mapping.frame_to_bank_index(frame)] = (
            counts.get(mapping.frame_to_bank_index(frame), 0) + 1
        )
    assert len(counts) == 16
    assert set(counts.values()) == {64}


def test_unflatten_out_of_range(mapping):
    with pytest.raises(AddressMapError):
        mapping.unflatten_bank_index(16)


def test_multi_channel_layout():
    mapping = AddressMapping(
        DramOrganization(channels=2), total_rows_per_bank=16
    )
    # Consecutive frames alternate channels first.
    assert mapping.frame_to_coordinate(0).channel == 0
    assert mapping.frame_to_coordinate(1).channel == 1
    assert mapping.frame_to_coordinate(2).bank == 1


def test_coordinate_validation():
    mapping = AddressMapping(DramOrganization(), total_rows_per_bank=4)
    with pytest.raises(AddressMapError):
        mapping.coordinate_to_frame(
            DramCoordinate(channel=0, rank=0, bank=0, row=4, column=0)
        )
