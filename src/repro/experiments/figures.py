"""The paper's evaluation figures as data: one table, one runner, one formatter.

Every sweep figure is the same computation: each table row simulates one
:class:`Run` (a scenario plus config overrides) on a set of workloads,
optionally normalizes it to a baseline :class:`Run`, and averages the
result over the workloads.  A :class:`Figure` record states that once —
its rows, baseline, metric, averaging, summary lines, the paper's
reference numbers and the shape claims the benchmark asserts — and
:func:`run_figure` and :func:`format_figure` do the rest.  The prefetch
list is built from the same rows, so what a figure submits and what it
reads cannot disagree.

Figures 5 (allocator capacity) and 9 (traced timeline) are not sweeps;
their records name the code that computes their rows instead.

Two averaging orders are in use.  Figures 3 and 4 compare workload means
of hmean-IPC (``ratio_of_means``); every other multi-workload value —
Figure 15's rows and the ``average`` summary lines — is the mean of the
per-workload ratios.  For a single-workload row both orders give the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from repro.config.dram_configs import DDR4_1600, DramOrganization, FgrMode
from repro.config.scenarios import PartitionPolicy, Scenario
from repro.config.system_configs import CoreConfig, OsConfig
from repro.core.metrics import degradation, speedup
from repro.core.runspec import RunSpec
from repro.experiments import figure5, figure9
from repro.experiments.report import format_percent, format_table
from repro.experiments.runner import SweepRunner
from repro.units import ms
from repro.workloads.mixes import scaled_mix


class Run:
    """What one row simulates per workload: a scenario plus overrides
    (config fields, and ``banks_per_task``)."""

    __slots__ = ("scenario", "overrides")

    def __init__(self, scenario: str | Scenario, **overrides):
        self.scenario = scenario
        self.overrides = overrides

    def spec(self, runner: SweepRunner, workload) -> RunSpec:
        return runner.spec(workload, self.scenario, **self.overrides)


class Row(NamedTuple):
    """One table row: its leading cells and the runs behind its values."""

    labels: tuple
    run: Run
    base: Optional[Run]  # None: report the metric itself
    workloads: tuple  # one workload tuple per value column


class Ref(NamedTuple):
    """What the paper reports for a point, next to the measured cells:
    per key, the mean of value column ``col`` over the rows matching it
    (``None`` matches any label)."""

    point: str
    paper: str
    keys: tuple
    col: int = 0


class Shape(NamedTuple):
    """A qualitative claim of the paper, asserted on the measured table."""

    claim: str
    holds: Callable[["FigureResult"], bool]


@dataclass(frozen=True)
class Figure:
    """One figure of the paper: how to compute, print and check it."""

    name: str
    title: str
    headers: tuple[str, ...]
    #: Sweep figures: the rows for a workload list.
    rows: Optional[Callable[[Sequence], list[Row]]] = None
    #: Non-sweep figures: ``compute(**kwargs)`` returns the
    #: ``(labels, values)`` rows directly.
    compute: Optional[Callable] = None
    #: Replaces the table text (Figure 9's timelines).
    format: Optional[Callable] = None
    #: Workloads the rows average over; empty: the runner profile's.
    workloads: tuple = ()
    metric: str = "hmean_ipc"
    compare: Callable[[float, float], float] = speedup
    ratio_of_means: bool = False
    cell: Callable[[float], str] = format_percent
    #: ``(label indices, line format)``: one line per distinct key,
    #: in table order, with the mean of the key's first values.
    summary: Optional[tuple[tuple[int, ...], str]] = None
    #: ``benchmarks/results`` files, one per distinct first label.
    results: tuple[str, ...] = ()
    paper: tuple[Ref, ...] = ()
    shapes: tuple[Shape, ...] = ()


# -- the runner -------------------------------------------------------------------


def _workloads(figure: Figure, runner: SweepRunner, workloads) -> Sequence:
    return workloads or figure.workloads or runner.profile.workloads


def figure_specs(figure: Figure, runner: SweepRunner, workloads=None) -> list[RunSpec]:
    """Every RunSpec a sweep figure reads, for batch submission."""
    if figure.rows is None:
        return []
    return [
        run.spec(runner, workload)
        for row in figure.rows(_workloads(figure, runner, workloads))
        for group in row.workloads
        for workload in group
        for run in (row.run, row.base)
        if run is not None
    ]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _value(figure: Figure, runner: SweepRunner, row: Row, group) -> float:
    def metric(run: Run, workload) -> float:
        return getattr(runner.run_spec(run.spec(runner, workload)), figure.metric)

    if row.base is None:
        return _mean([metric(row.run, w) for w in group])
    if figure.ratio_of_means:
        return figure.compare(
            _mean([metric(row.run, w) for w in group]),
            _mean([metric(row.base, w) for w in group]),
        )
    return _mean(
        [figure.compare(metric(row.run, w), metric(row.base, w)) for w in group]
    )


def run_figure(
    figure: Figure,
    runner: Optional[SweepRunner] = None,
    workloads: Optional[Sequence] = None,
    **kwargs,
) -> "FigureResult":
    """Compute *figure*'s rows: prefetch every run, then read them back.

    ``workloads`` replaces the rows' workload list; ``kwargs`` go to a
    non-sweep figure's ``compute``.
    """
    if figure.compute is not None:
        return FigureResult(figure, figure.compute(**kwargs), runner)
    if kwargs:
        raise TypeError(f"{figure.name} takes no arguments {sorted(kwargs)}")
    runner = runner or SweepRunner()
    runner.prefetch(figure_specs(figure, runner, workloads))
    rows = [
        (row.labels, tuple(_value(figure, runner, row, g) for g in row.workloads))
        for row in figure.rows(_workloads(figure, runner, workloads))
    ]
    return FigureResult(figure, rows, runner)


class FigureResult:
    """A computed figure: ``(labels, values)`` rows in table order."""

    def __init__(self, figure: Figure, rows: list, runner: Optional[SweepRunner]):
        self.figure = figure
        self.rows = rows
        self.runner = runner

    def matching(self, *key) -> list:
        return [
            values
            for labels, values in self.rows
            if len(labels) == len(key)
            and all(k is None or k == label for k, label in zip(key, labels))
        ]

    def mean(self, *key, col: int = 0) -> float:
        """Mean of value column *col* over the rows matching *key*."""
        return _mean([values[col] for values in self.matching(*key)])

    def __getitem__(self, key) -> float:
        """The first value of the one row matching *key*."""
        (values,) = self.matching(*(key if isinstance(key, tuple) else (key,)))
        return values[0]

    def of(self, name: str) -> "FigureResult":
        """Another figure, computed with the same runner."""
        return run_figure(FIGURES[name], self.runner)

    def verdicts(self) -> list[tuple[str, bool]]:
        return [(shape.claim, bool(shape.holds(self))) for shape in self.figure.shapes]

    @property
    def text(self) -> str:
        return format_figure(self.figure, self.rows)

    def parts(self) -> list[tuple[str, str]]:
        """``(results file, text)`` pairs: one table per distinct first
        label when the figure names several files."""
        names = self.figure.results or (self.figure.name,)
        if len(names) == 1:
            return [(names[0], self.text)]
        groups = _grouped(self.rows, (0,)).values()
        return [(name, format_figure(self.figure, rows)) for name, rows in zip(names, groups)]

    def markdown(self) -> str:
        """The EXPERIMENTS.md tables: paper vs measured, then the shape."""
        figure = self.figure
        lines = [f"| {figure.title} | paper | measured |", "|---|---|---|"]
        for ref in figure.paper:
            measured = " / ".join(figure.cell(self.mean(*k, col=ref.col)) for k in ref.keys)
            lines.append(f"| {ref.point} | {ref.paper} | {measured} |")
        lines += ["", "| shape | holds |", "|---|---|"]
        lines += [f"| {claim} | {'✓' if ok else '✗'} |" for claim, ok in self.verdicts()]
        return "\n".join(lines)


# -- the formatter ----------------------------------------------------------------


def _grouped(rows: list, indices: tuple[int, ...]) -> dict:
    """*rows* grouped by their labels at *indices*, in table order."""
    groups: dict = {}
    for labels, values in rows:
        groups.setdefault(tuple(labels[i] for i in indices), []).append((labels, values))
    return groups


def format_figure(figure: Figure, rows: list) -> str:
    """The figure's text table plus its summary lines."""
    if figure.format is not None:
        return figure.format(figure, rows)
    table = format_table(
        figure.headers,
        [list(labels) + [figure.cell(v) for v in values] for labels, values in rows],
        title=figure.title,
    )
    if figure.summary is None:
        return table
    indices, line = figure.summary
    summary = [
        line.format(*key, figure.cell(_mean([values[0] for _, values in group])))
        for key, group in _grouped(rows, indices).items()
    ]
    return "\n".join([table] + summary)


# -- the table --------------------------------------------------------------------

#: Table 2 mixes with at least one M/H benchmark; the paper's Figure 3
#: averages are dominated by these (the all-L mixes barely touch memory).
MEMORY_INTENSIVE = ("WL-1", "WL-5", "WL-6", "WL-7", "WL-8", "WL-9", "WL-10")
LOW_MPKI = ("WL-2", "WL-3", "WL-4")

#: No refresh + soft partitioning, baseline CFS (isolates the BLP effect).
_CONFINED = Scenario("confined_no_refresh", "no_refresh", partition=PartitionPolicy.SOFT)


def _figure3_rows(workloads) -> list[Row]:
    intensive = tuple(w for w in workloads if w in MEMORY_INTENSIVE)
    return [
        Row(
            (f"{d}Gb", f"{t}ms", scheme),
            Run(scheme, density_gbit=d, trefw_ps=ms(t)),
            Run("no_refresh", density_gbit=d, trefw_ps=ms(t)),
            (tuple(workloads), intensive),
        )
        for t in (64, 32)
        for d in (8, 16, 24, 32)
        for scheme in ("all_bank", "per_bank")
    ]


def _figure4_rows(workloads) -> list[Row]:
    return [
        Row(
            (f"{d}Gb", banks),
            Run("no_refresh", density_gbit=d)
            if banks == 8
            else Run(_CONFINED, density_gbit=d, banks_per_task=banks),
            Run("all_bank", density_gbit=d),
            (tuple(workloads),),
        )
        for d in (8, 16, 24, 32)
        for banks in (8, 4, 2, 1)
    ]


def _per_density(**overrides):
    """Figures 10 and 13: per-bank and the co-design vs all-bank, per
    workload, at 16/24/32 Gb."""

    def rows(workloads) -> list[Row]:
        return [
            Row(
                (f"{d}Gb", w, scheme),
                Run(scheme, density_gbit=d, **overrides),
                Run("all_bank", density_gbit=d, **overrides),
                ((w,),),
            )
            for d in (16, 24, 32)
            for w in workloads
            for scheme in ("per_bank", "codesign")
        ]

    return rows


def _at_32gb(schemes, base: Optional[str]):
    """Figures 11 and 14: one row per workload and scheme at 32 Gb."""

    def rows(workloads) -> list[Row]:
        return [
            Row(
                (w, scheme),
                Run(scheme, density_gbit=32),
                Run(base, density_gbit=32) if base else None,
                ((w,),),
            )
            for w in workloads
            for scheme in schemes
        ]

    return rows


def _figure12_rows(workloads) -> list[Row]:
    def ddr4(scenario: str, mode: FgrMode) -> Run:
        return Run(scenario, density_gbit=32, dram_timing=DDR4_1600, fgr_mode=mode)

    variants = (
        ("ddr4_2x", ddr4("all_bank", FgrMode.X2)),
        ("ddr4_4x", ddr4("all_bank", FgrMode.X4)),
        ("codesign", ddr4("codesign", FgrMode.X1)),
    )
    return [
        Row((w, label), run, ddr4("all_bank", FgrMode.X1), ((w,),))
        for w in workloads
        for label, run in variants
    ]


def _figure15_rows(workloads) -> list[Row]:
    """Partition sizing follows Section 6.6 (1:4 keeps 6 banks per task,
    1:2 keeps 4); quad-core runs use 2 DIMMs per channel (4 ranks)."""

    def overrides(cores: int, density: int) -> dict:
        extra = {"organization": DramOrganization(ranks_per_channel=4)} if cores >= 4 else {}
        return {"density_gbit": density, "cores": CoreConfig(num_cores=cores), **extra}

    return [
        Row(
            (cores, f"1:{ratio}", f"{d}Gb", scheme),
            Run(scheme, **overrides(cores, d)),
            Run("all_bank", **overrides(cores, d)),
            (tuple(scaled_mix(w, cores * ratio) for w in workloads),),
        )
        for cores, ratio in ((2, 2), (2, 4), (4, 2), (4, 4))
        for d in (16, 24, 32)
        for scheme in ("per_bank", "codesign")
    ]


def _ablation_rows(workloads) -> list[Row]:
    variants = [
        ("components", label, Run(scenario))
        for label, scenario in (
            ("per_bank (hw baseline)", "per_bank"),
            ("same-bank schedule only", "same_bank_hw_only"),
            ("partitioning only", "partition_only"),
            ("full co-design (soft)", "codesign"),
            ("co-design, hard partition", "codesign_hard"),
            ("co-design, best effort", "codesign_best_effort"),
        )
    ]
    variants += [
        ("banks_per_task", f"{b} banks", Run("codesign", banks_per_task=b))
        for b in (2, 4, 6)
    ]
    # eta=1 disables refresh awareness almost entirely; large values
    # always wait for a clean task.
    variants += [
        ("eta_thresh", f"eta={eta}", Run("codesign", os=OsConfig(eta_thresh=eta)))
        for eta in (1, 2, 3, 8)
    ]
    return [
        Row((study, label), run, Run("all_bank"), (tuple(workloads),))
        for study, label, run in variants
    ]


def _rising(values: list[float]) -> bool:
    return values == sorted(values)


def _density_keys(scheme: str) -> tuple:
    return tuple((f"{d}Gb", None, scheme) for d in (16, 24, 32))


def _densities(t, scheme: str) -> list[float]:
    """A per-density figure's 16/24/32 Gb averages for *scheme*."""
    return [t.mean(*key) for key in _density_keys(scheme)]


def _memory_bound_latency_cut(t) -> bool:
    workloads = {labels[0] for labels, _ in t.rows} - set(LOW_MPKI)
    better = sum(1 for w in workloads if t[w, "codesign"] < t[w, "all_bank"])
    return better >= len(workloads) - 1


FIGURE_TABLE = (
    Figure(
        "figure3",
        "Figure 3: performance degradation due to refresh (vs no-refresh)",
        ("density", "tREFW", "scheme", "degradation (all)", "degradation (M/H)"),
        rows=_figure3_rows,
        compare=degradation,
        ratio_of_means=True,
        paper=tuple(
            Ref(f"{d} {t} {scheme}, M/H mixes", value, ((d, t, scheme),), col=1)
            for d, t, scheme, value in (
                ("8Gb", "64ms", "all_bank", "5.4%"),
                ("32Gb", "64ms", "all_bank", "17.2%"),
                ("8Gb", "64ms", "per_bank", "0.24%"),
                ("32Gb", "64ms", "per_bank", "9.8%"),
                ("32Gb", "32ms", "all_bank", "34.8%"),
                ("32Gb", "32ms", "per_bank", "20.3%"),
            )
        ),
        shapes=(
            Shape(
                "all-bank degradation grows with density at 64 ms",
                lambda t: _rising([t[f"{d}Gb", "64ms", "all_bank"] for d in (8, 16, 24, 32)]),
            ),
            Shape(
                "per-bank degrades no more than all-bank at every density and tREFW",
                lambda t: all(
                    t[f"{d}Gb", f"{r}ms", "per_bank"] <= t[f"{d}Gb", f"{r}ms", "all_bank"]
                    for d in (8, 16, 24, 32)
                    for r in (64, 32)
                ),
            ),
            Shape(
                "32 ms costs all-bank over 1.5x its 64 ms degradation at 32 Gb",
                lambda t: t["32Gb", "32ms", "all_bank"] > 1.5 * t["32Gb", "64ms", "all_bank"],
            ),
        ),
    ),
    Figure(
        "figure4",
        "Figure 4: no-refresh IPC with confined banks vs all-bank baseline",
        ("density", "banks/task", "IPC vs all-bank(8 banks)"),
        rows=_figure4_rows,
        ratio_of_means=True,
        paper=tuple(
            Ref(f"banks/task {banks}, 8/16/24/32Gb", paper,
                tuple((f"{d}Gb", banks) for d in (8, 16, 24, 32)))
            for banks, paper in (
                (8, "—"),
                (4, "loses at 8Gb, wins at 16Gb+"),
                (2, "—"),
                (1, "—"),
            )
        ),
        shapes=(
            Shape(
                "unconfined no-refresh is the best case at every density (2 pp slack)",
                lambda t: all(
                    t[f"{d}Gb", 8] >= t[f"{d}Gb", banks] - 0.02
                    for d in (8, 16, 24, 32)
                    for banks in (4, 2, 1)
                ),
            ),
            Shape(
                "4 banks/task keeps more IPC than 1 at every density (2 pp slack)",
                lambda t: all(t[f"{d}Gb", 4] >= t[f"{d}Gb", 1] - 0.02 for d in (8, 16, 24, 32)),
            ),
            Shape("at 32 Gb, 4-bank confinement beats the all-bank baseline",
                  lambda t: t["32Gb", 4] > 0),
        ),
    ),
    Figure(
        "figure5",
        "Figure 5: fraction of footprint allocable on a single bank",
        ("density", "benchmark", "pages", "% on bank 0"),
        compute=figure5.rows,
        cell="{:.1%}".format,
        summary=((0,), "  average @ {}: {}"),
        paper=(
            Ref("average, 8/16/24/32Gb", "~68% / rising / rising / ~100%",
                tuple((f"{d}Gb", None, None) for d in (8, 16, 24, 32))),
        ),
        shapes=(
            Shape(
                "the single-bank fraction rises with density",
                lambda t: _rising([t.mean(f"{d}Gb", None, None) for d in (8, 16, 24, 32)]),
            ),
            Shape("over 90% fits one bank at 32 Gb", lambda t: t.mean("32Gb", None, None) > 0.9),
            Shape("mcf fits under half of one 8 Gb bank", lambda t: t["8Gb", "mcf", None] < 0.5),
            Shape("mcf fits one 32 Gb bank entirely", lambda t: t["32Gb", "mcf", None] == 1.0),
        ),
    ),
    Figure(
        "figure9",
        "Figure 9: refresh-aware schedule rotation (16-quantum window)",
        (),
        compute=figure9.rows,
        format=figure9.format_timelines,
        cell="{:.0%}".format,
        paper=(
            Ref("conflict-free quanta: co-design / refresh-oblivious CFS", "—",
                (("codesign",), ("same_bank_hw_only",))),
        ),
        shapes=(
            Shape("no co-design quantum conflicts with the refreshing bank",
                  lambda t: t["codesign"] == 1.0),
            Shape("refresh-oblivious CFS conflicts on over 80% of quanta",
                  lambda t: t["same_bank_hw_only"] < 0.2),
            Shape("the co-design trace covers at least 16 quanta",
                  lambda t: t.matching("codesign")[0][1] >= 16),
        ),
    ),
    Figure(
        "figure10",
        "Figure 10: IPC improvement normalized to all-bank refresh",
        ("density", "workload", "scheme", "IPC vs all-bank"),
        rows=_per_density(),
        summary=((0, 2), "  average @ {}: {} {}"),
        paper=(
            Ref("per_bank average, 16/24/32Gb", "~6.5% / ~6.7% / ~9.9%",
                _density_keys("per_bank")),
            Ref("codesign average, 16/24/32Gb", "+9.03% / +12.1% / +16.2%",
                _density_keys("codesign")),
        ),
        shapes=(
            Shape(
                "per-bank and the co-design both beat all-bank on average at every density",
                lambda t: min(_densities(t, "codesign") + _densities(t, "per_bank")) > 0,
            ),
            Shape(
                "the co-design beats per-bank on average at 24 and 32 Gb",
                lambda t: all(
                    t.mean(d, None, "codesign") > t.mean(d, None, "per_bank")
                    for d in ("24Gb", "32Gb")
                ),
            ),
            Shape(
                "the co-design's average gain grows with density",
                lambda t: (g := _densities(t, "codesign"))[2] > g[1] > g[0],
            ),
            Shape(
                "the all-L mixes WL-2/3/4 gain under 8% from the co-design",
                lambda t: all(
                    abs(v[0]) < 0.08
                    for w in LOW_MPKI
                    for v in t.matching(None, w, "codesign")
                ),
            ),
            Shape(
                "WL-2 (povray, MPKI 0.05) gains under 1%",
                lambda t: all(abs(v[0]) < 0.01 for v in t.matching(None, "WL-2", "codesign")),
            ),
        ),
    ),
    Figure(
        "figure11",
        "Figure 11: average memory access latency",
        ("workload", "scheme", "avg latency (mem cycles)"),
        rows=_at_32gb(("all_bank", "per_bank", "codesign"), base=None),
        metric="avg_read_latency_mem_cycles",
        cell="{:.1f}".format,
        paper=(
            Ref("WL-6: all_bank / per_bank / codesign", "—",
                tuple(("WL-6", s) for s in ("all_bank", "per_bank", "codesign"))),
        ),
        shapes=(
            Shape(
                "the co-design cuts latency below all-bank on all but at most one "
                "memory-intensive mix",
                _memory_bound_latency_cut,
            ),
        ),
    ),
    Figure(
        "figure12",
        "Figure 12: DDR4 FGR modes vs co-design (normalized to 1x)",
        ("workload", "scheme", "IPC vs DDR4-1x"),
        rows=_figure12_rows,
        paper=(
            Ref("average: 2x / 4x", "worse than 1x", ((None, "ddr4_2x"), (None, "ddr4_4x"))),
            Ref("average: codesign", "—", ((None, "codesign"),)),
        ),
        shapes=(
            Shape("2x is no better than 1x on average (1 pp slack)",
                  lambda t: t.mean(None, "ddr4_2x") <= 0.01),
            Shape("4x is no better than 2x on average (1 pp slack)",
                  lambda t: t.mean(None, "ddr4_4x") <= t.mean(None, "ddr4_2x") + 0.01),
            Shape(
                "the co-design beats 1x, 2x and 4x on average",
                lambda t: t.mean(None, "codesign")
                > max(t.mean(None, "ddr4_2x"), t.mean(None, "ddr4_4x"), 0),
            ),
        ),
    ),
    Figure(
        "figure13",
        "Figure 13: 32 ms retention (normalized to all-bank refresh)",
        ("density", "workload", "scheme", "IPC vs all-bank"),
        rows=_per_density(trefw_ps=ms(32)),
        summary=((0, 2), "  average @ {}: {} {}"),
        paper=(
            Ref("per_bank average, 16/24/32Gb", "—", _density_keys("per_bank")),
            Ref("codesign average, 16/24/32Gb", "+16.4% / +23.4% / +34.1%",
                _density_keys("codesign")),
        ),
        shapes=(
            Shape(
                "the co-design beats all-bank on average at every density",
                lambda t: min(_densities(t, "codesign")) > 0,
            ),
            Shape(
                "the co-design is at least per-bank on average at every density (1 pp slack)",
                lambda t: all(
                    c >= p - 0.01
                    for c, p in zip(_densities(t, "codesign"), _densities(t, "per_bank"))
                ),
            ),
            Shape(
                "the co-design gains more at 32 Gb than at 16 Gb",
                lambda t: t.mean("32Gb", None, "codesign") > t.mean("16Gb", None, "codesign"),
            ),
            Shape(
                "the co-design gains more at 32 ms than at 64 ms (Figure 10), at 32 Gb",
                lambda t: t.mean("32Gb", None, "codesign")
                > t.of("figure10").mean("32Gb", None, "codesign"),
            ),
        ),
    ),
    Figure(
        "figure14",
        "Figure 14: comparison with prior proposals (32Gb)",
        ("workload", "scheme", "IPC vs all-bank"),
        rows=_at_32gb(("per_bank", "ooo_per_bank", "adaptive", "codesign"), base="all_bank"),
        summary=((1,), "  average: {} {}"),
        paper=tuple(
            Ref(f"average: {point}", paper, ((None, scheme),))
            for point, scheme, paper in (
                ("per_bank", "per_bank", "—"),
                ("ooo_per_bank (Chang et al., arXiv 1712.07754)", "ooo_per_bank", "+9.5%"),
                ("adaptive (Mukundan et al., ISCA 2013)", "adaptive", "+1.9%"),
                ("codesign", "codesign", "+16.2%"),
            )
        ),
        shapes=(
            Shape(
                "every scheme at least matches all-bank on average (2 pp slack)",
                lambda t: all(
                    t.mean(None, s) > -0.02
                    for s in ("per_bank", "ooo_per_bank", "adaptive", "codesign")
                ),
            ),
            Shape(
                "OOO per-bank is within 5 pp of per-bank",
                lambda t: abs(t.mean(None, "ooo_per_bank") - t.mean(None, "per_bank")) < 0.05,
            ),
            Shape(
                "Adaptive Refresh gains no more than per-bank (1 pp slack)",
                lambda t: t.mean(None, "adaptive") <= t.mean(None, "per_bank") + 0.01,
            ),
            Shape(
                "the co-design leads the field (0.5 pp slack)",
                lambda t: t.mean(None, "codesign")
                >= max(t.mean(None, s) for s in ("per_bank", "ooo_per_bank", "adaptive"))
                - 0.005,
            ),
        ),
    ),
    Figure(
        "figure15",
        "Figure 15: sensitivity to cores x consolidation ratio",
        ("cores", "ratio", "density", "scheme", "IPC vs all-bank"),
        rows=_figure15_rows,
        workloads=("WL-1", "WL-5", "WL-6", "WL-8"),
        paper=tuple(
            Ref(f"{cores} cores {ratio}: codesign, 32/24/16Gb", paper,
                tuple((cores, ratio, f"{d}Gb", "codesign") for d in (32, 24, 16)))
            for cores, ratio, paper in (
                (2, "1:2", "14.2% / 11.2% / 8.9% (Section 6.6)"),
                (2, "1:4", "—"),
                (4, "1:2", "—"),
                (4, "1:4", "—"),
            )
        ),
        shapes=(
            Shape(
                "the co-design at least matches all-bank at every point (2 pp slack)",
                lambda t: all(v[0] > -0.02 for v in t.matching(None, None, None, "codesign")),
            ),
            Shape(
                "at 32 Gb, dual-core 1:4 beats 1:2 (more banks per task)",
                lambda t: t[2, "1:4", "32Gb", "codesign"] > t[2, "1:2", "32Gb", "codesign"],
            ),
        ),
    ),
    Figure(
        "ablations",
        "Ablation studies",
        ("study", "variant", "IPC vs all-bank"),
        rows=_ablation_rows,
        workloads=("WL-6",),
        results=("ablation_components", "ablation_banks", "ablation_eta"),
        paper=tuple(
            Ref(f"{study}: {' / '.join(variants)}", paper, tuple((study, v) for v in variants))
            for study, paper, variants in (
                ("components", "—", ("same-bank schedule only", "partitioning only",
                                     "full co-design (soft)")),
                ("banks_per_task", "6 banks is the sweet spot (footnote 11)",
                 ("2 banks", "4 banks", "6 banks")),
                ("eta_thresh", "—", ("eta=1", "eta=2", "eta=3", "eta=8")),
            )
        ),
        shapes=(
            Shape(
                "the full co-design beats the same-bank schedule alone",
                lambda t: t["components", "full co-design (soft)"]
                > t["components", "same-bank schedule only"],
            ),
            Shape(
                "the full co-design beats partitioning alone",
                lambda t: t["components", "full co-design (soft)"]
                > t["components", "partitioning only"],
            ),
            Shape(
                "best-effort mode is within 3 pp of the plain co-design",
                lambda t: abs(
                    t["components", "co-design, best effort"]
                    - t["components", "full co-design (soft)"]
                )
                < 0.03,
            ),
            Shape(
                "6 banks/task >= 4 >= 2 (2 pp slack)",
                lambda t: t["banks_per_task", "6 banks"]
                >= t["banks_per_task", "4 banks"]
                >= t["banks_per_task", "2 banks"] - 0.02,
            ),
            Shape(
                "eta=8 recovers at least eta=1's gain",
                lambda t: t["eta_thresh", "eta=8"] >= t["eta_thresh", "eta=1"],
            ),
        ),
    ),
)

#: Figure name -> record; the names ``python -m repro.experiments`` and
#: :func:`repro.api.figure` accept.
FIGURES = {figure.name: figure for figure in FIGURE_TABLE}
