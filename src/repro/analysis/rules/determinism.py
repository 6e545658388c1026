"""RPR001: no unseeded randomness or wall clock in simulator packages.

A simulation is replayed from its content-hashed :class:`RunSpec`; any
value drawn from the process RNG, the wall clock, or the OS entropy pool
silently poisons every cached result.  Seeded ``random.Random(seed)``
instances are the sanctioned source of randomness (the system builder
hands one to each task), so constructing those is allowed — calling the
module-level ``random.*`` functions (which share hidden global state) is
not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.registry import register

#: Fully-resolved callables that read the wall clock or entropy pool.
_BANNED_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.monotonic_ns": "wall clock",
    "time.perf_counter": "wall clock",
    "time.perf_counter_ns": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.randbelow": "OS entropy",
}

#: ``random.*`` members that are safe: seeded-instance construction and
#: pure helpers that don't touch the hidden module-global RNG state.
_RANDOM_ALLOWED = {"random.Random", "random.SystemRandom"}


def is_banned_call(resolved: str) -> bool:
    """True for a wall-clock/entropy call or a module-global ``random.*``
    function: RPR001's findings and RPR013's taint seeds."""
    if resolved in _BANNED_CALLS:
        return True
    return (
        resolved.startswith("random.")
        and resolved not in _RANDOM_ALLOWED
        and resolved.count(".") == 1
    )


@register
class UnseededRandomnessRule(Rule):
    code = "RPR001"
    name = "no-unseeded-randomness"
    description = (
        "simulator code must not read the wall clock, OS entropy, or the "
        "module-global random state; use a seeded random.Random instance"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(ctx.config.pure_packages):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None or not is_banned_call(resolved):
                continue
            if resolved in _BANNED_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"call to {resolved}() ({_BANNED_CALLS[resolved]}) breaks "
                    "RunSpec -> RunResult purity; derive values from the spec "
                    "or a seeded random.Random",
                )
            else:
                yield self.finding(
                    ctx,
                    node,
                    f"{resolved}() uses the module-global RNG (process-wide "
                    "hidden state); use a seeded random.Random instance",
                )
