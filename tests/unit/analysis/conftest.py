"""Fixture helpers for linter tests.

``lint`` writes a source snippet into a temp tree shaped like the real
package (``<tmp>/repro/core/fixture.py``) so package-scoped rules bind,
then runs the analyzer over just that file and returns the findings.

``lint_project`` writes several files into one tree and runs the
analyzer over the tree, returning the full :class:`AnalysisReport` so
tests can assert on findings and stats alike.

Both call :func:`analyze_project`, the function the CLI and CI run, so
every rule test also exercises CI's noqa matching.
"""

import textwrap

import pytest

from repro.analysis import AnalysisConfig, analyze_project


@pytest.fixture
def lint(tmp_path):
    def run(source, module="repro/core/fixture.py", select=None):
        path = tmp_path / module
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        config = AnalysisConfig(
            select=frozenset(select) if select is not None else None
        )
        return analyze_project([path], config).findings

    return run


@pytest.fixture
def lint_project(tmp_path):
    def run(files, select=None):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        config = AnalysisConfig(
            select=frozenset(select) if select is not None else None
        )
        return analyze_project([tmp_path], config)

    return run


def codes(findings):
    return [f.code for f in findings]
