"""Figure 9: the co-design in operation (illustrative figure).

The paper's Figure 9 shows tasks rotating across cores so the bank being
refreshed in each 4 ms stretch belongs to nobody scheduled.  This
experiment reproduces it as data: a traced run of the co-design versus
the refresh-oblivious baseline on the same hardware, reporting the
fraction of conflict-free quanta and the rendered timeline.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.simulator import build_system
from repro.core.trace import ScheduleTracer
from repro.telemetry import ChromeTraceSink


def rows(
    workload: str = "WL-1",
    refresh_scale: int = 512,
    trace_dir: str | None = None,
) -> list[tuple[tuple, tuple]]:
    """Trace both scenarios: ``((scenario,), (conflict-free fraction,
    quanta, timeline, trace path))`` each.  With *trace_dir*, also export
    each run as a Chrome trace (``figure9.<scenario>.trace.json``,
    Perfetto-loadable)."""
    out = []
    for scenario in ("codesign", "same_bank_hw_only"):
        system = build_system(workload, scenario, refresh_scale=refresh_scale)
        tracer = ScheduleTracer(system)
        chrome = None
        if trace_dir is not None:
            chrome = system.telemetry.subscribe(ChromeTraceSink())
        system.run(num_windows=1.0, warmup_windows=0.0)
        trace_path = None
        if chrome is not None:
            path = Path(trace_dir) / f"figure9.{scenario}.trace.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            chrome.write(path)
            trace_path = str(path)
        out.append(
            ((scenario,),
             (tracer.conflict_free_fraction(), len(tracer.quanta()),
              tracer.timeline(max_quanta=16), trace_path))
        )
    return out


def format_timelines(figure, rows) -> str:
    parts = [figure.title]
    for (scenario,), (fraction, quanta, timeline, trace_path) in rows:
        parts.append(
            f"\n--- {scenario}: {fraction:.0%} of {quanta} quanta conflict-free ---"
        )
        parts.append(timeline)
        if trace_path is not None:
            parts.append(f"(chrome trace: {trace_path})")
    return "\n".join(parts)
