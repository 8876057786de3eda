"""The correctness gates accept the program's real outputs and reject
perturbed goldens and payloads."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import dse_grid
import service_mix
from gates import (
    GateError,
    check_design_points,
    check_digest,
    check_layer_payload,
    check_repro_stdout,
    check_same_payload,
    digest_record,
    strip_timings,
)
from harness import GOLDEN

GOLDEN_STDOUT = (GOLDEN / "repro_all_stdout.txt").read_text()
GOLDEN_DIGEST = json.loads((GOLDEN / "repro_all_seed0.json").read_text())


def _with_timings(text: str) -> str:
    return text.replace("\n== Table II", "\n[table1 completed in 0.3 s]\n== Table II", 1)


def test_golden_stdout_passes_with_timing_lines():
    stdout = _with_timings(GOLDEN_STDOUT)
    assert stdout != GOLDEN_STDOUT
    assert strip_timings(stdout) == GOLDEN_STDOUT
    check_repro_stdout(stdout, GOLDEN_STDOUT)


def test_perturbed_golden_fails():
    digit = next(i for i, ch in enumerate(GOLDEN_STDOUT) if ch.isdigit())
    perturbed = (
        GOLDEN_STDOUT[:digit]
        + str((int(GOLDEN_STDOUT[digit]) + 1) % 10)
        + GOLDEN_STDOUT[digit + 1:]
    )
    with pytest.raises(GateError):
        check_repro_stdout(GOLDEN_STDOUT, perturbed)
    with pytest.raises(GateError):
        check_repro_stdout(GOLDEN_STDOUT + "extra line\n", GOLDEN_STDOUT)


def test_digest_detects_one_changed_statistic():
    rows = [["alexnet", "conv1", 100, 2000, 50, {"SCNN": 1.5, "DCNN": 3.25}]]
    record = digest_record(rows)
    check_digest(record, json.loads(json.dumps(record)))
    for column, value in ((2, 101), (4, 51)):
        changed = [list(rows[0])]
        changed[0][column] = value
        with pytest.raises(GateError):
            check_digest(digest_record(changed), record)
    energy = [rows[0][:5] + [{"SCNN": 1.5000000000000002, "DCNN": 3.25}]]
    with pytest.raises(GateError, match="digest"):
        check_digest(digest_record(energy), record)


def test_committed_digest_covers_72_layers():
    assert sum(t["layers"] for t in GOLDEN_DIGEST["totals"].values()) == 72
    perturbed = json.loads(json.dumps(GOLDEN_DIGEST))
    perturbed["totals"]["vggnet"]["scnn_cycles"] += 1
    with pytest.raises(GateError):
        check_digest(GOLDEN_DIGEST, perturbed)


def test_payload_comparison_is_bitwise():
    payload = {"cycles": [[12345]], "energy": {"SCNN": 0.1 + 0.2}}
    check_same_payload(json.loads(json.dumps(payload)), payload, "same")
    with pytest.raises(GateError):
        check_same_payload({"cycles": [[12345]], "energy": {"SCNN": 0.3}}, payload, "ulp")


def test_layer_payload_against_a_simulation():
    simulation = SimpleNamespace(
        layer_name="conv1", scnn=SimpleNamespace(cycles=10, products=99)
    )
    payload = {"layer": "conv1", "cycles": [[10]], "products": [[99]]}
    check_layer_payload(payload, simulation)
    with pytest.raises(GateError):
        check_layer_payload({**payload, "cycles": [[11]]}, simulation)


def test_design_points_must_match_field_for_field():
    point = SimpleNamespace(name="SCNN", cycles=1.0, energy=2.0, area_mm2=3.0)
    check_design_points([point], [point])
    off = SimpleNamespace(name="SCNN", cycles=1.0, energy=2.0000000000000004, area_mm2=3.0)
    with pytest.raises(GateError):
        check_design_points([off], [point])
    with pytest.raises(GateError):
        check_design_points([], [point])


def test_dse_check_accepts_a_real_sweep_and_rejects_a_perturbed_cell():
    sweeper = dse_grid.Sweeper()
    inputs = sweeper.draw(np.random.default_rng(7))
    points, grid = sweeper.operation(inputs)
    sweeper.check(inputs, (points, grid), 3)
    grid.energy[1, 2, 3] *= 1.0 + 1e-15
    with pytest.raises(GateError, match="grid cell"):
        sweeper.check(inputs, (points, grid), 3)


def test_service_check_accepts_real_payloads_and_rejects_a_perturbed_one():
    session = service_mix.Session()
    try:
        mix, _ = service_mix.drive(session, seed=5, operations=2)
    finally:
        session.close()
    assert [job.kind for job in mix.jobs] == ["small", "repeat"]
    assert all(job.error is None for job in mix.jobs)
    service_mix.check(mix, seed=5)
    mix.jobs[1].payload = json.loads(json.dumps(mix.jobs[1].payload))
    mix.jobs[1].payload["cycles"][0][0] += 1
    with pytest.raises(GateError, match="repeat"):
        service_mix.check(mix, seed=5)
    # Both copies perturbed alike: only the serial re-simulation sees it.
    mix.jobs[0].payload = mix.jobs[1].payload
    with pytest.raises(GateError, match="serial reference"):
        service_mix.check(mix, seed=5)
