"""The perf-trajectory aggregator/gate in scripts/bench_trend.py."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_trend.py"
_spec = importlib.util.spec_from_file_location("bench_trend", SCRIPT)
bench_trend = importlib.util.module_from_spec(_spec)
sys.modules["bench_trend"] = bench_trend
_spec.loader.exec_module(bench_trend)


def report(date, ops=5000, events=385525, digest="abc", wall=1.0,
           cost_model=None):
    out = {
        "schema": 1,
        "date": date,
        "git": "deadbee",
        "python": "3.12.0",
        "kernels": [
            {"name": "engine_event_chain", "ops": ops,
             "wall_seconds": wall, "ops_per_sec": int(ops / wall)},
        ],
        "end_to_end": {
            "name": "wl6_codesign_end_to_end", "wall_seconds": wall * 3,
            "events_processed": events, "result_sha256": digest,
            "reads_completed": 1,
        },
    }
    if cost_model is not None:
        out["cost_model"] = cost_model
    return out


def model(serviced=2000, dead_ratio=0.008, stale=0.99, row_hits=0.55):
    return {
        "picks": serviced + 16,
        "serviced": serviced,
        "completed": serviced,
        "row_hit_pops": int(serviced * row_hits),
        "drain_entries": 0,
        "drain_exits": 0,
        "dead_pick_ratio": dead_ratio,
        "stale_skips_per_pop": stale,
        "row_hit_pop_ratio": row_hits,
    }


def write_reports(directory, *reports):
    for entry in reports:
        path = directory / f"BENCH_{entry['date']}.json"
        path.write_text(json.dumps(entry))


def test_signature_covers_counts_and_digest_not_walls():
    a = bench_trend.determinism_signature(report("2026-01-01", wall=1.0))
    b = bench_trend.determinism_signature(report("2026-01-02", wall=99.0))
    assert a == b
    c = bench_trend.determinism_signature(report("2026-01-03", events=1))
    assert a != c


def test_reports_load_oldest_first(tmp_path):
    write_reports(tmp_path, report("2026-02-01"), report("2026-01-01"))
    dates = [r["date"] for r in bench_trend.load_reports(tmp_path)]
    assert dates == ["2026-01-01", "2026-02-01"]


def test_trajectory_table_has_one_row_per_report(tmp_path):
    write_reports(tmp_path, report("2026-01-01"), report("2026-02-01"))
    table = bench_trend.trajectory_table(bench_trend.load_reports(tmp_path))
    assert "2026-01-01" in table and "2026-02-01" in table
    assert "engine_event_chain" in table


def test_gate_passes_on_matching_signature(tmp_path):
    checked_in = report("2026-01-01", wall=1.0)
    fresh = report("2026-01-02", wall=50.0)  # wall drift is fine
    assert bench_trend.gate(checked_in, fresh) == ([], [])


def test_gate_fails_on_count_or_digest_drift(tmp_path):
    checked_in = report("2026-01-01")
    assert bench_trend.gate(checked_in, report("2026-01-02", ops=5001))[0]
    assert bench_trend.gate(checked_in, report("2026-01-02", digest="zzz"))[0]


def test_gate_treats_baseline_absent_keys_as_informational():
    """A fresh report with kernels/cost-model fields the baseline predates
    must note them, not fail — otherwise adding a kernel requires an
    impossible simultaneous re-baseline."""
    checked_in = report("2026-01-01")
    fresh = report("2026-01-02", cost_model={"controller_request_stream": model()})
    fresh["kernels"].append(
        {"name": "brand_new_kernel", "ops": 7, "wall_seconds": 0.1,
         "ops_per_sec": 70}
    )
    problems, notes = bench_trend.gate(checked_in, fresh)
    assert problems == []
    assert any("brand_new_kernel" in n for n in notes)
    assert any("cost_model.controller_request_stream" in n for n in notes)


def test_gate_fails_when_fresh_loses_coverage():
    checked_in = report("2026-01-01")
    fresh = report("2026-01-02")
    fresh["kernels"] = []  # the kernel vanished
    problems, _ = bench_trend.gate(checked_in, fresh)
    assert any("missing from fresh" in p for p in problems)


def test_signature_pins_cost_model_behavior_fields():
    a = report("2026-01-01", cost_model={"controller_request_stream": model()})
    b = report(
        "2026-01-02",
        cost_model={"controller_request_stream": model(row_hits=0.60)},
    )
    problems, _ = bench_trend.gate(a, b)
    assert any("row_hit_pops" in p for p in problems)


def test_cost_model_gate_passes_within_tolerance():
    a = report("2026-01-01", cost_model={"k": model(dead_ratio=0.008)})
    b = report("2026-01-02", cost_model={"k": model(dead_ratio=0.012)})
    problems, notes = bench_trend.cost_model_gate(a, b)
    assert problems == [] and notes == []


def test_cost_model_gate_fails_on_regressing_drift():
    a = report("2026-01-01", cost_model={"k": model(dead_ratio=0.008)})
    worse = report("2026-01-02", cost_model={"k": model(dead_ratio=0.10)})
    problems, _ = bench_trend.cost_model_gate(a, worse)
    assert any("dead_pick_ratio" in p for p in problems)

    sweepy = report("2026-01-02", cost_model={"k": model(stale=2.5)})
    problems, _ = bench_trend.cost_model_gate(a, sweepy)
    assert any("stale_skips_per_pop" in p for p in problems)


def test_cost_model_gate_ignores_improvements():
    a = report("2026-01-01", cost_model={"k": model(dead_ratio=0.10, stale=2.0)})
    better = report(
        "2026-01-02", cost_model={"k": model(dead_ratio=0.001, stale=0.1)}
    )
    assert bench_trend.cost_model_gate(a, better) == ([], [])


def test_cost_model_gate_without_baseline_is_informational():
    a = report("2026-01-01")  # predates cost models entirely
    b = report("2026-01-02", cost_model={"k": model()})
    problems, notes = bench_trend.cost_model_gate(a, b)
    assert problems == []
    assert any("no checked-in baseline" in n for n in notes)


def test_cost_model_gate_fails_when_kernel_model_vanishes():
    a = report("2026-01-01", cost_model={"k": model()})
    b = report("2026-01-02", cost_model={})
    problems, _ = bench_trend.cost_model_gate(a, b)
    assert any("missing from fresh" in p for p in problems)


def test_cli_gate_fails_on_hot_path_ratio_regression(tmp_path, capsys):
    write_reports(
        tmp_path, report("2026-01-01", cost_model={"k": model(dead_ratio=0.008)})
    )
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    write_reports(
        fresh_dir, report("2026-01-02", cost_model={"k": model(dead_ratio=0.2)})
    )
    fresh = str(fresh_dir / "BENCH_2026-01-02.json")
    assert bench_trend.main(
        ["--dir", str(tmp_path), "--gate", "--fresh", fresh]
    ) == 1
    assert "HOT-PATH REGRESSION" in capsys.readouterr().err


def test_cli_gate_exit_codes(tmp_path, capsys):
    write_reports(tmp_path, report("2026-01-01"))
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    write_reports(fresh_dir, report("2026-01-02"))
    fresh = str(fresh_dir / "BENCH_2026-01-02.json")

    assert bench_trend.main(["--dir", str(tmp_path)]) == 0
    assert bench_trend.main(
        ["--dir", str(tmp_path), "--gate", "--fresh", fresh]
    ) == 0

    write_reports(fresh_dir, report("2026-01-02", events=42))
    assert bench_trend.main(
        ["--dir", str(tmp_path), "--gate", "--fresh", fresh]
    ) == 1
    assert "DETERMINISM REGRESSION" in capsys.readouterr().err


def test_cli_fails_without_reports(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert bench_trend.main(["--dir", str(empty)]) == 1


def test_gate_is_graceful_without_any_baseline(tmp_path, capsys):
    """--gate on an empty trajectory must not fail a fresh checkout."""
    empty = tmp_path / "empty"
    empty.mkdir()
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    write_reports(fresh_dir, report("2026-01-02"))
    fresh = str(fresh_dir / "BENCH_2026-01-02.json")
    assert bench_trend.main(
        ["--dir", str(empty), "--gate", "--fresh", fresh]
    ) == 0
    assert "no trajectory yet" in capsys.readouterr().out


def test_trend_summary_single_point_says_no_trajectory(tmp_path, capsys):
    write_reports(tmp_path, report("2026-01-01"))
    assert bench_trend.main(["--dir", str(tmp_path)]) == 0
    assert "no trajectory yet" in capsys.readouterr().out


def test_trend_summary_two_points_reports_drift():
    reports = [report("2026-01-01", wall=1.0), report("2026-02-01", wall=1.5)]
    summary = bench_trend.trend_summary(reports)
    assert "2026-01-01 -> 2026-02-01" in summary
    assert "engine_event_chain +50.0%" in summary
    assert "end_to_end +50.0%" in summary


def _load_script(name):
    path = SCRIPT.with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_both_scripts_gate_every_key_of_the_one_shared_signature():
    """bench_report.py and bench_trend.py import one signature from
    repro.bench, and it still gates every key the two copies did."""
    from repro.bench import determinism_signature

    assert bench_trend.determinism_signature is determinism_signature
    assert _load_script("bench_report").determinism_signature is determinism_signature
    full = report("2026-01-01", cost_model={"k": model()})
    full["streams"] = {"access": "abc123"}
    pinned = ("serviced", "completed", "row_hit_pops", "drain_entries", "drain_exits")
    expected = {
        "engine_event_chain": 5000,
        "end_to_end.events_processed": 385525,
        "end_to_end.result_sha256": "abc",
        "streams.access.sha256": "abc123",
        **{f"cost_model.k.{field}": full["cost_model"]["k"][field] for field in pinned},
    }
    assert determinism_signature(full) == expected
    for key in expected:
        fresh = json.loads(json.dumps(full))
        if key == "engine_event_chain":
            fresh["kernels"][0]["ops"] += 1
        elif key.startswith("end_to_end."):
            fresh["end_to_end"][key.split(".")[1]] = "changed"
        elif key.startswith("streams."):
            fresh["streams"]["access"] = "changed"
        else:
            fresh["cost_model"]["k"][key.rsplit(".", 1)[1]] += 1
        problems, _ = bench_trend.gate(full, fresh)
        assert [p for p in problems if p.startswith(f"{key}:")], key
