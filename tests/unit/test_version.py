"""The package version has one source: ``repro.__version__``."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def _project_table(text: str) -> str:
    """Body of the ``[project]`` table (text match: no tomllib on 3.10)."""
    match = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match is not None, "pyproject.toml has no [project] table"
    return match.group(1)


def test_pyproject_reads_the_version_from_the_package():
    text = PYPROJECT.read_text()
    project = _project_table(text)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}', text, re.M
    )


def test_version_is_a_release_number():
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
