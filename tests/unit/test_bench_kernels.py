"""Operation counts of the allocator and quantum micro-kernels."""

import pytest

from repro.bench import KERNELS


@pytest.mark.parametrize("name, ops", [("buddy_churn", 4096), ("partition_churn", 2000)])
def test_allocator_kernels_do_their_fixed_work(name, ops):
    assert KERNELS[name]() == ops


def test_full_quantum_is_deterministic():
    assert KERNELS["full_quantum"]() == KERNELS["full_quantum"]() > 0
