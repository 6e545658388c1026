"""Unit tests for metric helpers."""

import pytest

from repro.core.metrics import (
    degradation,
    fairness_index,
    harmonic_mean,
    speedup,
)


def test_harmonic_mean_basic():
    assert harmonic_mean([1.0, 1.0]) == 1.0
    assert harmonic_mean([1.0, 3.0]) == pytest.approx(1.5)


def test_harmonic_mean_dominated_by_slowest():
    assert harmonic_mean([0.1, 10.0]) < 0.2


def test_harmonic_mean_edge_cases():
    assert harmonic_mean([]) == 0.0
    assert harmonic_mean([0.0, 1.0]) == 0.0
    assert harmonic_mean([-1.0, 1.0]) == 0.0


def test_speedup():
    assert speedup(1.1, 1.0) == pytest.approx(0.10)
    assert speedup(0.9, 1.0) == pytest.approx(-0.10)
    assert speedup(1.0, 0.0) == 0.0


def test_degradation():
    assert degradation(0.9, 1.0) == pytest.approx(0.10)
    assert degradation(1.0, 1.0) == 0.0
    assert degradation(1.0, 0.0) == 0.0


def test_fairness_index():
    assert fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
    assert fairness_index([]) == 0.0
    assert fairness_index([0.0]) == 0.0
