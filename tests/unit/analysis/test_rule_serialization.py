"""RPR005: to_dict/from_dict pairing and hash-stable field coverage."""

from tests.unit.analysis.conftest import codes


def test_one_way_serializer_flagged(lint):
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            name: str

            def to_dict(self):
                return {"name": self.name}
        """,
        select={"RPR005"},
    )
    assert codes(findings) == ["RPR005"]
    assert "from_dict" in findings[0].message


def test_omitted_field_flagged(lint):
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            name: str
            windows: float

            def to_dict(self):
                return {"name": self.name}

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
        """,
        select={"RPR005"},
    )
    assert codes(findings) == ["RPR005"]
    assert "windows" in findings[0].message


def test_field_order_mismatch_flagged(lint):
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            name: str
            windows: float

            def to_dict(self):
                return {"windows": self.windows, "name": self.name}

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
        """,
        select={"RPR005"},
    )
    assert codes(findings) == ["RPR005"]
    assert "order" in findings[0].message


def test_complete_pair_is_clean(lint):
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            name: str
            windows: float

            def to_dict(self):
                return {"name": self.name, "windows": self.windows}

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
        """,
        select={"RPR005"},
    )
    assert findings == []


def test_plain_dataclass_without_serializers_is_clean(lint):
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class Stats:
            hits: int = 0
        """,
        select={"RPR005"},
    )
    assert findings == []


def test_noqa_suppresses(lint):
    findings = lint(
        """
        from dataclasses import dataclass

        @dataclass
        class Spec:  # repro: noqa[RPR005]
            name: str

            def to_dict(self):
                return {"name": self.name}
        """,
        select={"RPR005"},
    )
    assert findings == []


# -- RPR011: state-table entries name real attributes ---------------------------
#
# Beside RPR005 because both check that a serialized shape tracks the
# class shape: here a checkpoint table against the class's attributes.


def test_unbacked_snapshot_key_flagged(lint):
    findings = lint(
        """
        from repro.core.state import INT, Stateful

        class Core(Stateful):
            STATE = (("cycles", INT), ("stalls", INT))

            def __init__(self):
                self.cycles = 0
        """,
        select={"RPR011"},
    )
    assert codes(findings) == ["RPR011"]
    assert "stalls" in findings[0].message


def test_attribute_backed_pair_is_clean(lint):
    findings = lint(
        """
        from repro.core.state import INT, Stateful

        class Core(Stateful):
            STATE = (("cycles", INT), ("engine_now", INT))

            def __init__(self):
                self.cycles = 0

            def attach(self, engine):
                self.engine_now = engine.now
        """,
        select={"RPR011"},
    )
    assert findings == []


def test_slots_back_snapshot_keys(lint):
    findings = lint(
        """
        from repro.core.state import BOOL, INT, Stateful

        class Hub(Stateful):
            __slots__ = ("enabled", "_clock")

            STATE = (("enabled", BOOL), ("_clock", INT))
        """,
        select={"RPR011"},
    )
    assert findings == []
