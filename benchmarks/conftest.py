"""Shared fixtures for the paper benchmarks (plain pytest: ``pytest benchmarks``).

One :class:`SweepRunner` is shared across every test so runs common to
several figures (e.g. Figure 10's sweep feeds Figure 11's latency view
and Figure 14's 32Gb comparison) execute once.

Each test writes its formatted table to ``benchmarks/results/`` and
prints it (visible with ``pytest -s``).

Profiles: default is quick; ``REPRO_PROFILE=full`` runs longer windows at
finer refresh scaling.

The runner uses the persistent disk cache (``~/.cache/repro`` or
``REPRO_CACHE_DIR``) and fans cache misses out over ``REPRO_JOBS``
worker processes, so a repeated run with an unchanged config executes
zero simulations.  Cache keys hash the spec, not the code: to check a
code change, point ``REPRO_CACHE_DIR`` at an empty directory.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import SweepRunner, active_profile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def runner():
    return SweepRunner(active_profile())


@pytest.fixture(scope="session")
def save_table():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save
