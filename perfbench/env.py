"""Where the benchmark reads and writes, and how it finds the simulator.

Everything stays inside the checkout: the simulator is imported from
``src/`` next to this directory (never from an installed copy), and
every cache directory, temp file and trace lands under ``.perfbench/``
at the checkout root.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACES = WORK / "traces"


class MissingSimulator(RuntimeError):
    """The checkout has no importable ``src/repro``."""


def use_checkout_repro() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and pin the
    environment the workloads rely on: one job, and no cache outside
    the checkout even if a code path falls back to the default root."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSimulator(f"no simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSimulator(f"repro imported from {origin}, not {SRC}")


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under ``.perfbench/tmp``."""
    base = WORK / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=base))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
