"""scripts/bench_pairs.py, driven with a stub benchmark command."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules["bench_pairs"] = bench_pairs
_spec.loader.exec_module(bench_pairs)

#: Stands in for ``perfbench/run.py``: logs each call, then prints a
#: line of chatter and the result line built from the tree's
#: ``result.json`` (the setup time moves a little from run to run).
STUB = """
import json, os, sys
from pathlib import Path

tree = Path.cwd()
log = tree.parent / "runs.log"
with open(log, "a") as f:
    f.write(json.dumps([tree.name, sys.argv[1:], os.environ.get("PYTHONDONTWRITEBYTECODE")]) + "\\n")
runs = len(log.read_text().splitlines())
result = json.loads((tree / "result.json").read_text())
print("setup_s median of 7 fresh interpreters")
print(json.dumps({
    "correct": result.get("correct", True), "attempted": 3,
    "failed": result.get("failed", 0),
    "metrics": {
        "setup_s": {"value": result["setup_s"] + 0.001 * (runs % 3), "unit": "s"},
        "hmean_ipc": {"value": 0.6388, "unit": "IPC"},
    },
}))
"""

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_kips", "unit": "kinstr/s", "better": "higher", "bound": 0.2},
    {"name": "hmean_ipc", "unit": "IPC", "better": "higher", "bound": 0.15},
]


@pytest.fixture
def trees(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    out = {}
    for side, setup_s in (("parent", 0.22), ("change", 0.18)):
        tree = tmp_path / side
        (tree / "src" / "repro").mkdir(parents=True)
        (tree / "result.json").write_text(json.dumps({"setup_s": setup_s}))
        (tree / "BENCHMARK.json").write_text(json.dumps({
            "command": [sys.executable, str(stub)], "run_seconds": 5,
            "end_to_end": END_TO_END,
        }))
        out[side] = tree
    return out


def _runs(tmp_path) -> list:
    log = tmp_path / "runs.log"
    if not log.exists():
        return []
    return [json.loads(line) for line in log.read_text().splitlines()]


def _main(trees, *extra) -> int:
    return bench_pairs.main([
        str(trees["parent"]), str(trees["change"]), "--workload", "wl6_codesign_long",
        *extra,
    ])


def test_pairs_alternate_and_each_metric_is_compared(trees, tmp_path, capsys):
    assert _main(trees, "--seeds", "1,2", "--pairs", "4") == 0
    runs = _runs(tmp_path)
    # Odd pairs run the parent first, even pairs the change; per seed.
    assert [name for name, _, _ in runs] == 2 * [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent",
    ]
    assert {env for _, _, env in runs} == {"1"}
    assert [argv for _, argv, _ in runs][0] == [
        "--workload", "wl6_codesign_long", "--seed", "1", "--seconds", "5",
        "--trace", "0",
    ]
    assert [argv[3] for _, argv, _ in runs] == 8 * ["1"] + 8 * ["2"]
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines()
            if line.startswith(("setup_s", "hmean_ipc", "sim_kips"))}
    assert set(rows) == {"setup_s", "hmean_ipc"}  # sim_kips: not reported
    # Four pairs all won: too few to call a gain, and the header says so.
    assert "4/4" in rows["setup_s"] and rows["setup_s"].endswith("unresolved")
    assert "-17.7%" in rows["setup_s"] and "25%" in rows["setup_s"]
    assert "0/4" in rows["hmean_ipc"] and rows["hmean_ipc"].endswith("within bound")
    assert out.count("seed 1: 4 pairs") == out.count("seed 2: 4 pairs") == 1
    assert out.count("fewer than 10 pairs reads unresolved") == 2


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_pycache_under_src_refuses_to_start(trees, tmp_path, capsys, side):
    (trees[side] / "src" / "repro" / "__pycache__").mkdir()
    assert _main(trees, "--pairs", "1") == 2
    assert "__pycache__" in capsys.readouterr().err
    assert _runs(tmp_path) == []


@pytest.mark.parametrize("result", [{"correct": False}, {"failed": 1}])
def test_an_incorrect_run_or_a_failed_operation_exits_non_zero(
    trees, tmp_path, capsys, result
):
    (trees["change"] / "result.json").write_text(json.dumps({"setup_s": 0.18, **result}))
    assert _main(trees, "--pairs", "2") == 1
    assert "FAILED seed 1 change run 1" in capsys.readouterr().err


def test_a_run_that_exits_non_zero_stops_the_session(trees, tmp_path, capsys):
    (trees["parent"] / "result.json").unlink()
    assert _main(trees, "--pairs", "3") == 1
    assert "FAILED" in capsys.readouterr().err
    assert len(_runs(tmp_path)) == 1


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", 5 * [1.0, 1.1], 5 * [0.8, 0.82], "gain"),
    ("lower", [1.0, 1.1, 1.0, 1.05], [1.4, 1.3, 1.35, 1.4], "WORSE"),
    ("lower", [1.0, 1.1, 1.0, 1.05], [1.02, 1.0, 1.1, 1.01], "within bound"),
    ("lower", [1.0, 2.0, 1.0, 2.0], [1.1, 1.9, 1.2, 1.8], "unresolved"),
    ("higher", 5 * [1.0, 1.1], 5 * [1.4, 1.3], "gain"),
    ("higher", [1.0, 1.1, 1.0, 1.05], [0.7, 0.72, 0.71, 0.7], "WORSE"),
    # Every pair won, but four pairs are too few to call a gain.
    ("lower", [1.0, 1.1, 1.0, 1.05], [0.8, 0.82, 0.81, 0.8], "unresolved"),
    ("higher", [1.0, 1.1, 1.0, 1.05], [1.4, 1.3, 1.35, 1.4], "unresolved"),
    ("lower", [1.0], [0.9], "unresolved"),
])
def test_verdicts_against_the_bound(better, parent, change, verdict):
    assert bench_pairs.compare(parent, change, better, 0.25)["verdict"] == verdict
