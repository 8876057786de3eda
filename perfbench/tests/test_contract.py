"""BENCHMARK.json describes what the benchmark reports, and the benchmark
refuses to run without the program's source."""

import json
import shutil
import subprocess
import sys

import harness
import probes

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_every_reported_metric():
    assert [m["name"] for m in SPEC["per_layer"]] == list(probes.PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == probes.PER_LAYER
    reported = harness.latency_metrics(1.0, [1.0, 2.0], 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (_, unit) in reported.items()
    }
    assert [w["name"] for w in SPEC["workloads"]] == ["repro_all_cold", "dse_grid", "service_mix"]


def test_spec_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    assert len(json.dumps(SPEC)) < 64 * 1024


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dse_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode not in (0, 1)
    assert "correct" not in completed.stdout
    assert "no program source" in completed.stderr
