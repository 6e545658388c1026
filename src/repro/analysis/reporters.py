"""Finding reporters: human text, machine JSON, and SARIF.

Reporters render to strings; only the CLI writes to a stream.  The JSON
and SARIF documents are stable (sorted findings, fixed keys, no
timestamps) so CI annotations and tooling can consume them and so two
runs over the same tree are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Iterable, Optional

from repro.analysis.engine import Finding, Rule


def render_text(findings: Iterable[Finding], suppressed_count: int = 0) -> str:
    """GCC-style ``path:line:col: CODE message`` lines plus a summary."""
    findings = sorted(findings, key=Finding.sort_key)
    lines = [str(f) for f in findings]
    if findings:
        by_code: dict[str, int] = {}
        for f in findings:
            by_code[f.code] = by_code.get(f.code, 0) + 1
        summary = ", ".join(f"{code} x{n}" for code, n in sorted(by_code.items()))
        lines.append(f"{len(findings)} finding(s): {summary}")
    else:
        lines.append("no findings")
    if suppressed_count:
        lines.append(f"({suppressed_count} baselined finding(s) suppressed)")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding], suppressed_count: int = 0) -> str:
    """Stable JSON document: ``{"findings": [...], "count": N, ...}``."""
    findings = sorted(findings, key=Finding.sort_key)
    return json.dumps(
        {
            "findings": [asdict(f) for f in findings],
            "count": len(findings),
            "baselined": suppressed_count,
        },
        indent=2,
        sort_keys=True,
    )


#: SARIF spec pin — GitHub code scanning requires exactly this pair.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def render_sarif(
    findings: Iterable[Finding],
    rules: Optional[Iterable[Rule]] = None,
    suppressed_count: int = 0,
) -> str:
    """SARIF 2.1.0 log for code-scanning upload.

    Deliberately deterministic: no invocation timestamps or absolute
    URIs, rules sorted by code, results sorted by location — CI diffs
    two runs byte-for-byte to prove analyzer determinism.
    """
    findings = sorted(findings, key=Finding.sort_key)
    rule_meta = sorted(
        (r for r in (rules or []) if r.code), key=lambda r: r.code
    )
    descriptors = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rule_meta
    ]
    results = [
        {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _posix(f.path),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    document = {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": (
                            "https://github.com/local/repro#static-analysis"
                        ),
                        "rules": descriptors,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "columnKind": "unicodeCodePoints",
                "results": results,
                "properties": {"baselinedFindings": suppressed_count},
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
