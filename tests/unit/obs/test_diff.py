"""Cross-run diff: flattening, tolerance rules, severities, CLI."""

import json
import re

import pytest

from repro.errors import ConfigError
from repro.obs.diff import ToleranceRule, diff_files, diff_payloads
from repro.obs.__main__ import main as obs_main


PAYLOAD = {
    "scenario": "codesign",
    "hmean_ipc": 0.5689,
    "tasks": [
        {"name": "mcf", "instructions": 1000},
        {"name": "lbm", "instructions": 2000},
    ],
    "energy": None,
}


def test_identical_payloads():
    result = diff_payloads(PAYLOAD, json.loads(json.dumps(PAYLOAD)))
    assert result.status == "identical"
    assert result.exit_code == 0
    assert result.differences == []
    assert result.leaves_compared > 0


def test_regression_reports_leaf_path():
    other = json.loads(json.dumps(PAYLOAD))
    other["tasks"][1]["instructions"] = 2001
    result = diff_payloads(PAYLOAD, other)
    assert result.status == "regression"
    assert result.exit_code == 2
    (diff,) = result.differences
    assert diff.path == "tasks.1.instructions"
    assert (diff.a, diff.b) == (2000, 2001)


def test_tolerance_rule_downgrades_to_within_tolerance():
    other = json.loads(json.dumps(PAYLOAD))
    other["hmean_ipc"] = 0.5689 + 1e-12
    rules = [ToleranceRule("hmean_ipc", abs_tol=1e-9)]
    result = diff_payloads(PAYLOAD, other, rules)
    assert result.status == "within_tolerance"
    assert result.exit_code == 1
    assert result.tolerated and not result.regressions


def test_tolerance_is_per_path():
    other = json.loads(json.dumps(PAYLOAD))
    other["hmean_ipc"] = 0.57
    other["tasks"][0]["instructions"] = 999
    rules = [ToleranceRule("hmean_ipc", abs_tol=1.0)]
    result = diff_payloads(PAYLOAD, other, rules)
    assert result.status == "regression"
    paths = {d.path: d.status for d in result.differences}
    assert paths["hmean_ipc"] == "within_tolerance"
    assert paths["tasks.0.instructions"] == "regression"


def test_relative_tolerance():
    rules = [ToleranceRule("x", rel_tol=0.01)]
    assert diff_payloads({"x": 100.0}, {"x": 100.5}, rules).exit_code == 1
    assert diff_payloads({"x": 100.0}, {"x": 102.0}, rules).exit_code == 2


def test_missing_key_is_always_a_regression():
    other = dict(PAYLOAD)
    del other["energy"]
    rules = [ToleranceRule("*", abs_tol=1e9)]
    result = diff_payloads(PAYLOAD, other, rules)
    assert result.status == "regression"
    assert "energy" in {d.path for d in result.differences}


def test_non_numeric_differences_never_tolerated():
    rules = [ToleranceRule("*", abs_tol=1e9, rel_tol=1e9)]
    result = diff_payloads({"s": "codesign"}, {"s": "all_bank"}, rules)
    assert result.status == "regression"


def test_bool_vs_int_is_a_difference():
    result = diff_payloads({"flag": True}, {"flag": 1})
    assert result.status == "regression"


def test_empty_containers_are_leaves():
    assert diff_payloads({"a": []}, {"a": []}).status == "identical"
    assert diff_payloads({"a": []}, {"a": [1]}).status == "regression"


def test_glob_pattern_matches_list_indices():
    a = {"tasks": [{"ipc": 1.0}, {"ipc": 2.0}]}
    b = {"tasks": [{"ipc": 1.0 + 1e-12}, {"ipc": 2.0 - 1e-12}]}
    rules = [ToleranceRule("tasks.*.ipc", abs_tol=1e-9)]
    assert diff_payloads(a, b, rules).status == "within_tolerance"


def test_diff_files_and_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(PAYLOAD))
    b.write_text(json.dumps(PAYLOAD))
    assert diff_files(a, b).exit_code == 0
    assert obs_main(["diff", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out

    perturbed = json.loads(json.dumps(PAYLOAD))
    perturbed["hmean_ipc"] = 0.6
    b.write_text(json.dumps(perturbed))
    assert obs_main(["diff", str(a), str(b)]) == 2
    assert "hmean_ipc" in capsys.readouterr().out
    assert obs_main(["diff", str(a), str(b), "--tol", "hmean_ipc=0.5"]) == 1


def test_a_torn_file_is_named(tmp_path, capsys):
    torn = tmp_path / "torn.json"
    ok = tmp_path / "ok.json"
    torn.write_text('{"a": 1')
    ok.write_text(json.dumps(PAYLOAD))
    for a, b in ((torn, ok), (ok, torn)):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(torn))}: not a whole JSON"):
            diff_files(a, b)
    with pytest.raises(SystemExit) as exit_:
        obs_main(["diff", str(torn), str(ok)])
    assert exit_.value.code == 2
    assert f"{torn}: not a whole JSON document" in capsys.readouterr().err


def test_cli_rejects_bad_rule(tmp_path):
    with pytest.raises(SystemExit):
        obs_main(["diff", "a", "b", "--tol", "no-equals-sign"])
