"""Project model: state keys and call edges."""

import textwrap

import ast

from repro.analysis import AnalysisConfig
from repro.analysis.engine import FileContext
from repro.analysis.model import ProjectModel, extract_summary


def _summary(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    text = textwrap.dedent(source)
    path.write_text(text)
    ctx = FileContext(path, text, ast.parse(text), AnalysisConfig())
    return extract_summary(ctx)


def _model(tmp_path, files):
    return ProjectModel(
        _summary(tmp_path, rel, source) for rel, source in files.items()
    )


def test_effective_state_keys_union_along_mro(tmp_path):
    model = _model(
        tmp_path,
        {
            "repro/core/base.py": """
                class Base:
                    def snapshot_state(self):
                        return {"a": self.a}
            """,
            "repro/core/child.py": """
                from repro.core.base import Base

                class Child(Base):
                    def snapshot_state(self):
                        state = super().snapshot_state()
                        state["b"] = self.b
                        return state
            """,
        },
    )
    keys, analyzable = model.effective_state_keys(
        "repro.core.child", model.classes["repro.core.child.Child"][1]
    )
    assert analyzable
    assert {"a", "b"} <= set(keys)


def test_dynamic_snapshot_is_unanalyzable(tmp_path):
    model = _model(
        tmp_path,
        {
            "repro/core/dyn.py": """
                class Dyn:
                    def snapshot_state(self):
                        return self._build_state()
            """,
        },
    )
    keys, analyzable = model.effective_state_keys(
        "repro.core.dyn", model.classes["repro.core.dyn.Dyn"][1]
    )
    assert not analyzable


def test_resolve_self_call_through_base(tmp_path):
    model = _model(
        tmp_path,
        {
            "repro/core/base.py": """
                class Base:
                    def helper(self):
                        pass
            """,
            "repro/core/child.py": """
                from repro.core.base import Base

                class Child(Base):
                    def go(self):
                        self.helper()
            """,
        },
    )
    fn = model.functions["repro.core.child.Child.go"]
    (site,) = [s for s in fn.calls if s.is_self_call]
    resolved = model.resolve_call("repro.core.child.Child.go", site)
    assert resolved == "repro.core.base.Base.helper"
