"""Every script under examples/ imports against the current package.

Nothing else reads the examples: the lint step and the analyzer cover
``src`` and ``tests`` only.  Importing one runs its imports and
definitions but not its ``main``, which simulates for a while.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), f"{path.name} has no main()"
