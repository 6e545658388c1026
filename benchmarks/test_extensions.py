"""Extensions beyond the paper's main line (plain pytest; each saves its
table under ``benchmarks/results/``).

* **Subarray-granularity refresh** (Section 7: "exposing the sub-array
  structures ... we expect our co-design to yield even better performance"):
  SALP-style hardware where a per-bank refresh blocks only one subarray.
* **Elastic Refresh** (Stuecheli et al., MICRO'10, Section 7 related work):
  postponement helps low-intensity workloads, not memory-intensive ones.
* **Refresh energy** across schemes: rescheduling refreshes (the co-design)
  does not change refresh energy; it only hides the latency.
"""

from repro.config.dram_configs import DramOrganization
from repro.experiments.report import format_percent, format_table


def test_subarray_extension(runner, save_table):
    salp_org = DramOrganization(subarrays_per_bank=8)
    rows = []
    for workload in ("WL-1", "WL-5", "WL-8"):
        base = runner.run(workload, "all_bank").hmean_ipc
        for scheme, org in (
            ("per_bank", None),
            ("per_bank+subarray", salp_org),
            ("codesign", None),
            ("codesign+subarray", salp_org),
        ):
            kwargs = {"organization": org} if org else {}
            value = runner.run(workload, scheme.split("+")[0], **kwargs).hmean_ipc
            rows.append([workload, scheme, format_percent(value / base - 1)])
    save_table(
        "ext_subarray",
        format_table(
            ["workload", "scheme", "IPC vs all-bank"],
            rows,
            title="Extension: subarray-granularity refresh (Section 7)",
        ),
    )
    # Subarray support never hurts (it only unblocks accesses), and it
    # visibly helps the baseline per-bank scheme — under the co-design the
    # refresh stalls are already gone, so there is little left to recover.
    # (tolerance covers run-to-run stochastic variation of the mixes)
    by_row = {(r[0], r[1]): float(r[2].rstrip("%")) for r in rows}
    for workload in ("WL-1", "WL-5", "WL-8"):
        assert by_row[(workload, "codesign+subarray")] >= (
            by_row[(workload, "codesign")] - 3.0
        )
        assert by_row[(workload, "per_bank+subarray")] >= (
            by_row[(workload, "per_bank")] - 3.0
        )


def test_elastic_refresh_extension(runner, save_table):
    rows = []
    for workload in ("WL-1", "WL-2"):
        base = runner.run(workload, "all_bank").hmean_ipc
        elastic = runner.run(workload, "elastic").hmean_ipc
        rows.append([workload, format_percent(elastic / base - 1)])
    save_table(
        "ext_elastic",
        format_table(
            ["workload", "elastic vs all-bank"],
            rows,
            title="Extension: Elastic Refresh (MICRO'10 baseline)",
        ),
    )
    # Helps somewhere, and never catastrophically hurts.
    gains = [float(r[1].strip("%+")) for r in rows]
    assert max(gains) > -1.0
    assert all(g > -10.0 for g in gains)


def test_refresh_energy_across_schemes(runner, save_table):
    rows = []
    for scheme in ("no_refresh", "all_bank", "per_bank", "codesign"):
        energy = runner.run("WL-5", scheme).energy
        rows.append(
            [
                scheme,
                f"{energy.total_mj:.3f}",
                f"{energy.refresh_mj:.4f}",
                f"{energy.refresh_fraction:.1%}",
            ]
        )
    save_table(
        "ext_energy",
        format_table(
            ["scheme", "total mJ", "refresh mJ", "refresh %"],
            rows,
            title="Extension: DRAM energy by refresh scheme (WL-5, 32Gb)",
        ),
    )
    by_scheme = {r[0]: float(r[2]) for r in rows}
    assert by_scheme["no_refresh"] == 0.0
    assert by_scheme["codesign"] > 0
    # The co-design hides latency; it does not skip refresh work.
    assert abs(by_scheme["codesign"] - by_scheme["per_bank"]) <= 0.35 * max(
        by_scheme["per_bank"], 1e-9
    )
