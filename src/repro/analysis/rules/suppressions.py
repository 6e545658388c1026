"""RPR015: suppressions must stay honest.

A ``# repro: noqa[...]`` comment is a debt record: it says "this
violation is known and accepted".  When the code it covered is fixed or
deleted, the record outlives the debt — and a stale suppression is worse
than none, because the next genuine violation on that line is silently
swallowed.  This audit runs after every other rule, against the *raw*
(pre-suppression) finding set, and reports:

* noqa comments none of whose codes matched any finding on their line
  (per stale code, so ``noqa[RPR004,RPR011]`` with only RPR004 firing
  names RPR011 as removable);
* noqa codes that name no registered rule (typo'd suppressions never
  suppress anything).

Scope guards keep the audit sound: per-code checks only run for rules
actually enabled this run, and blanket ``# repro: noqa`` comments are
only audited on full-rule-set runs.  RPR015 findings are exempt from
noqa suppression (a suppression cannot vouch for itself); accept one by
deleting the stale record.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Finding, ProjectContext, ProjectRule
from repro.analysis.registry import register


@register
class StaleSuppressionRule(ProjectRule):
    code = "RPR015"
    name = "stale-suppression-audit"
    description = (
        "noqa comments must match a live finding; stale suppressions "
        "hide the next real violation"
    )
    audit = True

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        model, config = pctx.model, pctx.config
        fired: dict[tuple[str, int], set[str]] = {}
        for finding in pctx.raw_findings:
            fired.setdefault((finding.path, finding.line), set()).add(
                finding.code
            )
        full_run = config.select is None
        for module in sorted(model.modules):
            summary = model.modules[module]
            for line, codes in summary.noqa:
                live = fired.get((summary.path, line), set())
                if codes is None:
                    if full_run and not live:
                        yield self.finding_at(
                            summary.path,
                            line,
                            1,
                            "blanket '# repro: noqa' suppresses no finding "
                            "on this line; remove it (stale suppressions "
                            "swallow the next real violation)",
                        )
                    continue
                for code in codes:
                    if code == self.code:
                        continue  # a suppression cannot vouch for itself
                    if code not in pctx.known_codes:
                        yield self.finding_at(
                            summary.path,
                            line,
                            1,
                            f"suppression names unknown rule code {code}; "
                            "it suppresses nothing — fix the code or remove "
                            "it",
                        )
                        continue
                    if not config.rule_enabled(code):
                        continue  # not checked this run: unknowable
                    if code not in live:
                        yield self.finding_at(
                            summary.path,
                            line,
                            1,
                            f"suppression for {code} no longer matches any "
                            "finding on this line; remove the stale noqa "
                            "code",
                        )
