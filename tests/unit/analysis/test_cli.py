"""CLI behavior: exit codes, JSON output, baselines, blanket noqa."""

import json
import textwrap

from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.analysis.engine import PARSE_ERROR_CODE, analyze_file
from repro.analysis import AnalysisConfig

DIRTY = """
import itertools

_ids = itertools.count()
"""

CLEAN = """
IDS = (1, 2, 3)
"""


def write_fixture(tmp_path, source, name="repro/core/fixture.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    path = write_fixture(tmp_path, CLEAN)
    assert main([str(path)]) == EXIT_CLEAN
    assert "no findings" in capsys.readouterr().out


def test_exit_one_with_findings_and_text_report(tmp_path, capsys):
    path = write_fixture(tmp_path, DIRTY)
    assert main([str(path)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "RPR002" in out and "1 finding(s)" in out


def test_json_report_is_machine_readable(tmp_path, capsys):
    path = write_fixture(tmp_path, DIRTY)
    assert main([str(path), "--format", "json"]) == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    (finding,) = doc["findings"]
    assert finding["code"] == "RPR002"
    assert finding["path"].endswith("fixture.py")
    assert finding["line"] == 4


def test_write_then_use_baseline(tmp_path, capsys):
    path = write_fixture(tmp_path, DIRTY)
    baseline = tmp_path / "baseline.json"
    assert main([str(path), "--write-baseline", str(baseline)]) == EXIT_CLEAN
    assert main([str(path), "--baseline", str(baseline)]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "baselined" in out or "suppressed" in out


def test_unreadable_baseline_is_usage_error(tmp_path, capsys):
    path = write_fixture(tmp_path, CLEAN)
    assert main([str(path), "--baseline", str(tmp_path / "no.json")]) == EXIT_ERROR


def test_unknown_select_code_is_usage_error(tmp_path):
    path = write_fixture(tmp_path, CLEAN)
    assert main([str(path), "--select", "RPR999"]) == EXIT_ERROR


def test_select_restricts_rules(tmp_path):
    path = write_fixture(tmp_path, DIRTY)
    assert main([str(path), "--select", "RPR007"]) == EXIT_CLEAN


def test_list_rules_names_full_catalog(tmp_path, capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in [f"RPR{i:03d}" for i in range(1, 16) if i != 10]:
        assert code in out
    assert "RPR010" not in out  # deleted: one state table drives both directions


def test_stats_line_goes_to_stderr(tmp_path, capsys):
    path = write_fixture(tmp_path, CLEAN)
    assert main([str(path), "--stats"]) == EXIT_CLEAN
    captured = capsys.readouterr()
    assert "stats:" in captured.err
    assert "rule(s)" in captured.err and "file(s)" in captured.err
    assert "stats:" not in captured.out


def test_sarif_format_round_trips(tmp_path, capsys):
    path = write_fixture(tmp_path, DIRTY)
    assert main([str(path), "--format", "sarif"]) == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    (result,) = doc["runs"][0]["results"]
    assert result["ruleId"] == "RPR002"


def test_directory_discovery_and_blanket_noqa(tmp_path, capsys):
    write_fixture(tmp_path, DIRTY, name="repro/core/a.py")
    write_fixture(
        tmp_path,
        "import itertools\n\n_ids = itertools.count()  # repro: noqa\n",
        name="repro/core/b.py",
    )
    assert main([str(tmp_path)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "a.py" in out and "b.py" not in out


def test_syntax_error_reported_as_parse_finding(tmp_path):
    path = write_fixture(tmp_path, "def broken(:\n")
    findings = analyze_file(path, AnalysisConfig())
    assert [f.code for f in findings] == [PARSE_ERROR_CODE]
