"""Correctness gates: every run checks the program's outputs with these.

Each gate raises :class:`GateError` naming the first mismatch.  The
references are committed goldens (the cold reproduction) or the program's
serial reference paths (``simulate_network``/``simulate_layer`` for service
payloads, ``batched=False`` and the scalar analytical models for sweeps),
always evaluated outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, List, Sequence

#: The one line of ``repro all`` output that carries a wall time.
_COMPLETION_LINE = re.compile(r"^\[\w+ completed in [0-9.]+ s\]$")


class GateError(AssertionError):
    """A program output differs from its reference."""


def canonical(value: Any) -> str:
    """One string per JSON value: equal strings mean bitwise-equal data."""
    return json.dumps(value, sort_keys=True)


def strip_timings(stdout: str) -> str:
    """``repro all`` output without its ``[<id> completed in N s]`` lines."""
    return "".join(
        line
        for line in stdout.splitlines(keepends=True)
        if not _COMPLETION_LINE.match(line.strip())
    )


def check_repro_stdout(stdout: str, golden: str) -> None:
    """The reproduction printed exactly the committed tables and figures."""
    got = strip_timings(stdout).splitlines()
    want = strip_timings(golden).splitlines()
    for number, (line, expected) in enumerate(zip(got, want), start=1):
        if line != expected:
            raise GateError(
                f"repro all output line {number}: {line!r} != golden {expected!r}"
            )
    if len(got) != len(want):
        raise GateError(
            f"repro all printed {len(got)} lines, golden has {len(want)}"
        )


def simulation_rows(simulations: Dict[str, Any]) -> List[list]:
    """Per-layer SCNN cycles, products, oracle cycles and energy totals."""
    rows = []
    for net, simulation in simulations.items():
        for layer in simulation.layers:
            rows.append([
                net,
                layer.layer_name,
                int(layer.scnn.cycles),
                int(layer.scnn.products),
                int(layer.oracle_cycles),
                {name: float(b.total) for name, b in sorted(layer.energy.items())},
            ])
    return rows


def digest_record(rows: Sequence[list]) -> Dict[str, Any]:
    """The digest of the simulated statistics plus per-network totals."""
    totals: Dict[str, Dict[str, int]] = {}
    for net, _, cycles, products, oracle, _ in rows:
        entry = totals.setdefault(
            net, {"layers": 0, "scnn_cycles": 0, "products": 0, "oracle_cycles": 0}
        )
        entry["layers"] += 1
        entry["scnn_cycles"] += cycles
        entry["products"] += products
        entry["oracle_cycles"] += oracle
    return {
        "sha256": hashlib.sha256(canonical(list(rows)).encode()).hexdigest(),
        "totals": totals,
    }


def check_digest(record: Dict[str, Any], golden: Dict[str, Any]) -> None:
    """The simulated statistics match the committed seed-0 digest."""
    if record["totals"] != golden["totals"]:
        raise GateError(
            f"simulated totals {record['totals']} != golden {golden['totals']}"
        )
    if record["sha256"] != golden["sha256"]:
        raise GateError(
            f"per-layer statistics digest {record['sha256']} != golden "
            f"{golden['sha256']}"
        )


def check_same_payload(payload: Any, reference: Any, what: str) -> None:
    """Two payloads carry bitwise-identical data."""
    if canonical(payload) != canonical(json.loads(canonical(reference))):
        raise GateError(f"{what}: payload differs from its reference")


def check_layer_payload(payload: Dict[str, Any], simulation: Any) -> None:
    """A ``layer`` job's payload against ``simulate_layer`` of its workload."""
    expected = {
        "layer": simulation.layer_name,
        "cycles": int(simulation.scnn.cycles),
        "products": int(simulation.scnn.products),
    }
    got = {
        "layer": payload.get("layer"),
        "cycles": payload["cycles"][0][0],
        "products": payload["products"][0][0],
    }
    if got != expected:
        raise GateError(f"layer payload {got} != serial reference {expected}")


def check_design_points(points: Sequence[Any], reference: Sequence[Any]) -> None:
    """Batched sweep points equal the per-config (``batched=False``) ones."""
    def flat(point) -> tuple:
        return (point.name, point.cycles, point.energy, point.area_mm2)

    got = [flat(point) for point in points]
    want = [flat(point) for point in reference]
    if got != want:
        for a, b in zip(got, want):
            if a != b:
                raise GateError(f"sweep point {a} != per-config reference {b}")
        raise GateError(f"sweep returned {len(got)} points, reference {len(want)}")


def check_grid_cell(grid: Any, c: int, layer: int, point: int,
                    cycles: float, energy: float) -> None:
    """One cell of a whole-grid evaluation equals the scalar model's value."""
    got = (float(grid.cycles[c, layer, point]), float(grid.energy[c, layer, point]))
    if got != (cycles, energy):
        raise GateError(
            f"grid cell (config {c}, layer {layer}, point {point}) = {got}, "
            f"scalar model {(cycles, energy)}"
        )
