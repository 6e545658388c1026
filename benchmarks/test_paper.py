"""The paper's figures, regenerated and checked: one test per record of
:data:`repro.experiments.figures.FIGURES`.

Each test prefetches the figure's runs, computes its rows (which must
execute no further simulation), saves its tables under
``benchmarks/results/``, rewrites the figure's generated block in
EXPERIMENTS.md and asserts every shape claim the record lists.
"""

import os
import pathlib

import pytest

from repro.experiments.figures import FIGURES, figure_specs, run_figure

EXPERIMENTS_MD = pathlib.Path(__file__).parents[1] / "EXPERIMENTS.md"

#: Figure 15 averages two mixes on the quick profile; the full profile
#: (and the CLI) average the record's four.
QUICK_WORKLOADS = {"figure15": ("WL-5", "WL-6")}


def _splice(name: str, block: str) -> None:
    """Replace the text between *name*'s markers in EXPERIMENTS.md."""
    begin, end = f"<!-- {name}: generated by benchmarks/test_paper.py -->", f"<!-- /{name} -->"
    text = EXPERIMENTS_MD.read_text()
    head, found, rest = text.partition(begin)
    assert found, f"EXPERIMENTS.md lacks the marker {begin}"
    _, found, tail = rest.partition(end)
    assert found, f"EXPERIMENTS.md lacks the marker {end}"
    EXPERIMENTS_MD.write_text(f"{head}{begin}\n{block}\n{end}{tail}")


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(name, runner, save_table):
    figure = FIGURES[name]
    full = os.environ.get("REPRO_PROFILE") == "full"
    workloads = None if full else QUICK_WORKLOADS.get(name)
    runner.prefetch(figure_specs(figure, runner, workloads))
    executed = runner.runs_executed
    result = run_figure(figure, runner, workloads)
    assert runner.runs_executed == executed, "a row read a run the prefetch missed"

    for results_name, text in result.parts():
        save_table(results_name, text)
    _splice(name, result.markdown())
    failed = [claim for claim, holds in result.verdicts() if not holds]
    assert not failed, f"{name}: shape claims fail: {failed}"
