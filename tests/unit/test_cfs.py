"""Unit tests for the CFS runqueue."""

import itertools

import pytest

from repro.errors import SchedulerError
from repro.os.cfs import CfsRunqueue
from repro.os.task import Task


_ids = itertools.count()


def make_task(name, vruntime=0.0):
    # Task requires an explicit id; mint creation-ordered ones like the
    # removed process-global counter so tie-break tests keep their meaning.
    task = Task(name, None, task_id=next(_ids))
    task.vruntime = vruntime
    return task


def test_enqueue_dequeue():
    rq = CfsRunqueue(0)
    t = make_task("a")
    rq.enqueue(t)
    assert rq.nr_running == 1
    rq.dequeue(t)
    assert rq.nr_running == 0


def test_double_enqueue_raises():
    rq = CfsRunqueue(0)
    t = make_task("a")
    rq.enqueue(t)
    with pytest.raises(SchedulerError):
        rq.enqueue(t)


def test_dequeue_missing_raises():
    rq = CfsRunqueue(0)
    with pytest.raises(SchedulerError):
        rq.dequeue(make_task("a"))


def test_pick_first_is_min_vruntime():
    rq = CfsRunqueue(0)
    a, b, c = make_task("a", 30), make_task("b", 10), make_task("c", 20)
    for t in (a, b, c):
        rq.enqueue(t)
    assert rq.pick_first() is b


def test_pick_first_tie_breaks_by_task_id():
    rq = CfsRunqueue(0)
    a, b = make_task("a", 5), make_task("b", 5)
    rq.enqueue(b)
    rq.enqueue(a)
    assert rq.pick_first() is a  # created first -> lower id


def test_pick_first_skips_non_runnable():
    rq = CfsRunqueue(0)
    a, b = make_task("a", 1), make_task("b", 2)
    a.runnable = False
    rq.enqueue(a)
    rq.enqueue(b)
    assert rq.pick_first() is b


def test_pick_first_empty_returns_none():
    assert CfsRunqueue(0).pick_first() is None


def test_in_vruntime_order():
    rq = CfsRunqueue(0)
    tasks = [make_task(str(i), vruntime=(7 * i) % 5) for i in range(5)]
    for t in tasks:
        rq.enqueue(t)
    ordered = list(rq.in_vruntime_order())
    values = [(t.vruntime, t.task_id) for t in ordered]
    assert values == sorted(values)
