"""RPR015: stale noqa comments are reported; only real comments suppress."""


def _codes(report):
    return [f.code for f in report.findings]


LIVE_NOQA = """
import itertools

_ids = itertools.count()  # repro: noqa[RPR002] single shared id spring
"""

STALE_NOQA = """
IDS = (1, 2, 3)  # repro: noqa[RPR002] nothing mutable here any more
"""

UNKNOWN_CODE = """
IDS = (1, 2, 3)  # repro: noqa[RPR999] typo'd code
"""

STALE_BLANKET = """
IDS = (1, 2, 3)  # repro: noqa
"""

QUOTED_IN_DOCSTRING = '''
def helper():
    """Suppress with '# repro: noqa[RPR002]' when justified."""
    return 1
'''


def test_live_noqa_is_not_flagged(lint_project):
    report = lint_project({"repro/core/a.py": LIVE_NOQA})
    assert _codes(report) == []


def test_stale_noqa_code_is_flagged(lint_project):
    report = lint_project({"repro/core/a.py": STALE_NOQA})
    assert _codes(report) == ["RPR015"]
    assert "RPR002" in report.findings[0].message


def test_unknown_noqa_code_is_flagged(lint_project):
    report = lint_project({"repro/core/a.py": UNKNOWN_CODE})
    assert _codes(report) == ["RPR015"]
    assert "RPR999" in report.findings[0].message


def test_stale_blanket_noqa_is_flagged_on_full_runs(lint_project):
    report = lint_project({"repro/core/a.py": STALE_BLANKET})
    assert _codes(report) == ["RPR015"]


def test_blanket_noqa_not_audited_under_select(lint_project):
    # A --select run can't know whether the blanket suppression matches
    # one of the rules that didn't run.
    report = lint_project(
        {"repro/core/a.py": STALE_BLANKET}, select=["RPR001", "RPR015"]
    )
    assert _codes(report) == []


def test_noqa_syntax_quoted_in_docstring_is_ignored(lint_project):
    report = lint_project({"repro/core/a.py": QUOTED_IN_DOCSTRING})
    assert _codes(report) == []


def test_rpr015_cannot_be_suppressed_by_noqa(lint_project):
    source = """
    IDS = (1, 2, 3)  # repro: noqa[RPR002,RPR015] trying to self-vouch
    """
    report = lint_project({"repro/core/a.py": source})
    assert _codes(report) == ["RPR015"]


def test_noqa_syntax_quoted_in_a_string_suppresses_nothing(lint):
    source = """
    import time

    def stamp():
        return time.time(), "# repro: noqa[RPR001]"
    """
    assert [f.code for f in lint(source)] == ["RPR001"]


def test_files_sharing_a_module_name_are_each_audited(lint_project):
    # Outside a repro tree a file's module name is its stem, so both
    # files derive ``mod``; each keeps its place in the project model.
    report = lint_project({"a/mod.py": STALE_NOQA, "b/mod.py": STALE_NOQA})
    assert _codes(report) == ["RPR015", "RPR015"]
    paths = sorted(f.path.replace("\\", "/") for f in report.findings)
    assert [p.rsplit("/", 2)[-2:] for p in paths] == [["a", "mod.py"], ["b", "mod.py"]]
