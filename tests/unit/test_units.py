"""Unit tests for units and clock-domain conversion."""

import pytest

from repro import units


def test_size_constants():
    assert units.KB == 1024
    assert units.MB == 1024 * 1024
    assert units.GB == 1024 ** 3


def test_time_conversions():
    assert units.ns(1) == 1000
    assert units.us(1) == 1000 * units.ns(1)
    assert units.ms(1) == 1000 * units.us(1)
    assert units.ns(0.5) == 500


def test_clock_domain_cycles():
    cpu = units.ClockDomain(freq_mhz=3200)
    assert cpu.cycles(units.ns(10)) == 32
    assert cpu.cycles(units.ns(1)) == 4  # 3.125ns period -> ceil
    mem = units.ClockDomain(freq_mhz=800)
    assert mem.cycles(units.ns(7.5)) == 6


def test_clock_domain_duration_roundtrip():
    cpu = units.ClockDomain(freq_mhz=3200)
    assert cpu.duration_ps(32) == units.ns(10)


def test_clock_domain_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        units.ClockDomain(0)
    with pytest.raises(ValueError):
        units.ClockDomain(-5)


def test_format_size():
    assert units.format_size(3 * units.GB) == "3.0GB"
    assert units.format_size(512) == "512B"
    assert units.format_size(1536) == "1.5KB"


def test_format_time():
    assert units.format_time_ps(units.ms(4)) == "4.000ms"
    assert units.format_time_ps(units.us(7.8)) == "7.800us"
    assert units.format_time_ps(units.ns(890)) == "890.000ns"
    assert units.format_time_ps(500) == "500ps"
