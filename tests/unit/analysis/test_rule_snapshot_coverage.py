"""RPR011: runtime-mutated attributes must be declared in the state table."""

from pathlib import Path

from repro.analysis import AnalysisConfig, analyze_project

from .conftest import codes

REPO_SRC = Path(__file__).resolve().parents[3] / "src"

COVERED = """
from repro.core.state import INT, Stateful

class Counter(Stateful):
    STATE = (("_count", INT),)

    def __init__(self):
        self._count = 0

    def tick(self):
        self._count += 1
"""

DRIFTING = """
from repro.core.state import INT, Stateful

class Counter(Stateful):
    STATE = (("_count", INT),)

    def __init__(self):
        self._count = 0
        self._peak = 0

    def tick(self):
        self._count += 1
        self._peak = max(self._peak, self._count)
"""


def test_covered_attribute_is_clean(lint):
    assert codes(lint(COVERED, select=["RPR011"])) == []


def test_uncaptured_runtime_attribute_fires(lint):
    findings = lint(DRIFTING, select=["RPR011"])
    assert codes(findings) == ["RPR011"]
    assert "_peak" in findings[0].message


def test_restore_and_init_assignments_are_exempt(lint):
    # Only __init__/restore_state write _epoch; no runtime mutation at all.
    source = """
    from repro.core.state import Stateful

    class Quiet(Stateful):
        STATE = ()

        def __init__(self):
            self._epoch = 0

        def restore_state(self, state, refs=None):
            self._epoch = 0
    """
    assert codes(lint(source, select=["RPR011"])) == []


def test_derived_declaration_is_clean(lint):
    source = """
    from repro.core.state import INT, Stateful

    class Counter(Stateful):
        STATE = (("_count", INT),)
        DERIVED = ("_double",)

        def __init__(self):
            self._count = 0
            self._double = 0

        def tick(self):
            self._count += 1
            self._double = self._count * 2

        def _rebuild(self):
            self._double = self._count * 2
    """
    assert codes(lint(source, select=["RPR011"])) == []


def test_incremental_super_snapshot_covers_subclass_keys(lint_project):
    # A subclass table lists only its own rows; the base's are unioned in.
    report = lint_project(
        {
            "repro/core/base.py": """
                from repro.core.state import INT, Stateful

                class Base(Stateful):
                    STATE = (("_a", INT),)

                    def __init__(self):
                        self._a = 0
            """,
            "repro/core/child.py": """
                from repro.core.base import Base
                from repro.core.state import INT

                class Child(Base):
                    STATE = (("_b", INT),)

                    def __init__(self):
                        super().__init__()
                        self._b = 0

                    def poke(self):
                        self._a += 1
                        self._b += 1
            """,
        },
        select=["RPR011"],
    )
    assert report.findings == []


def test_derived_name_without_attribute_is_flagged(lint):
    source = """
    from repro.core.state import INT, Stateful

    class Counter(Stateful):
        STATE = (("_count", INT),)
        DERIVED = ("_cache",)

        def __init__(self):
            self._count = 0
    """
    findings = lint(source, select=["RPR011"])
    assert codes(findings) == ["RPR011"]
    assert "_cache" in findings[0].message


def test_dynamic_snapshot_class_is_skipped(lint):
    # A table that is not a literal is out of static reach: stand down.
    source = """
    from repro.core.state import Stateful

    class Dyn(Stateful):
        STATE = build_rows()

        def poke(self):
            self._x = 1
    """
    assert codes(lint(source, select=["RPR011"])) == []


def test_class_without_state_protocol_is_skipped(lint):
    source = """
    class Plain:
        def poke(self):
            self._x = 1
    """
    assert codes(lint(source, select=["RPR011"])) == []


def test_noqa_with_justification_suppresses(lint):
    source = """
    from repro.core.state import INT, Stateful

    class Counter(Stateful):
        STATE = (("_count", INT),)

        def __init__(self):
            self._count = 0
            self._cache = None

        def tick(self):
            self._count += 1
            self._cache = self._count * 2  # repro: noqa[RPR011] written by hand elsewhere
    """
    assert codes(lint(source, select=["RPR011"])) == []


def test_mutation_dropping_real_snapshot_field_is_caught(tmp_path):
    """Deleting one row from cpu.core.Core's STATE table must fire.

    This is the acceptance check for the whole rule: the real class,
    really mutated the way a careless refactor would, caught statically
    instead of by checkpoint-fuzz luck.
    """
    source = (REPO_SRC / "repro/cpu/core.py").read_text()
    assert '("_stalled", BOOL),' in source
    target = tmp_path / "repro/cpu/core.py"
    target.parent.mkdir(parents=True)

    # Unmutated copy: clean.
    target.write_text(source)
    config = AnalysisConfig(select=frozenset({"RPR011"}))
    assert analyze_project([tmp_path], config).findings == []

    # Drop the row from the table: RPR011 must name it.
    target.write_text(source.replace('("_stalled", BOOL),\n', ""))
    findings = analyze_project([tmp_path], config).findings
    assert any(
        f.code == "RPR011" and "_stalled" in f.message for f in findings
    )
