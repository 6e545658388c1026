"""Unit tests for Task and TaskStats."""

import pytest

from repro.errors import ConfigError
from repro.os.task import Task, TaskStats


def test_explicit_task_ids_respected():
    a, b = Task("a", None, task_id=0), Task("b", None, task_id=1)
    assert (a.task_id, b.task_id) == (0, 1)


def test_task_id_is_required():
    # A process-global fallback counter would make ids depend on
    # allocation history and break bit-identical replay (RPR002).
    with pytest.raises(ConfigError):
        Task("a", None)
    with pytest.raises(ConfigError):
        Task("a", None, task_id=-1)  # -1 is the free-frame sentinel


def test_bank_accounting():
    task = Task("t", None, task_id=0)
    task.add_frame(10, bank=3)
    task.add_frame(11, bank=3)
    task.add_frame(12, bank=7)
    assert task.pages_per_bank == {3: 2, 7: 1}
    assert task.has_data_in_bank(3)
    assert not task.has_data_in_bank(0)
    assert task.fraction_in_bank(3) == 2 / 3
    assert task.fraction_in_bank(0) == 0.0


def test_fraction_with_no_pages():
    task = Task("t", None, task_id=0)
    assert task.fraction_in_bank(0) == 0.0


def test_scheduling_hooks_accumulate_cycles():
    task = Task("t", None, task_id=0)
    task.on_scheduled(100, core_id=0)
    assert task.current_core == 0
    task.on_descheduled(150)
    task.on_scheduled(200, core_id=1)
    task.on_descheduled(260)
    assert task.stats.scheduled_cycles == 110
    assert task.stats.quanta == 2
    assert task.current_core is None


def test_ipc_computation():
    stats = TaskStats()
    stats.instructions = 500
    stats.scheduled_cycles = 1000
    assert stats.ipc == 0.5
    assert TaskStats().ipc == 0.0


def test_possible_banks_frozen():
    task = Task("t", None, possible_banks={1, 2}, task_id=0)
    assert isinstance(task.possible_banks, frozenset)
    unrestricted = Task("u", None, task_id=1)
    assert unrestricted.possible_banks is None
