"""Where the traced run puts its spans, and the per-layer metric catalogue.

Layers are named after the program's modules.  Each probe is a public
function (or engine method) of one layer; the per-layer metrics aggregate
the spans those probes record.  Every traced run reports every metric in
:data:`PER_LAYER`; a layer a workload never calls reads 0 there.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from harness import NETWORKS
from spans import Tracer

#: (module, function, layer) of the stage probes that run per conv layer.
#: Each takes the layer's ``ConvLayerSpec`` (or its workload) first.
STAGE_PROBES = (
    ("repro.nn.pruning", "generate_pruned_weights", "nn.pruning"),
    ("repro.nn.inference", "generate_activations", "nn.inference"),
    ("repro.scnn.cycles", "simulate_layer_cycles", "scnn.cycles"),
    ("repro.scnn.dcnn", "simulate_dcnn_layer", "scnn.dcnn"),
    ("repro.scnn.oracle", "nonzero_multiplies", "scnn.oracle"),
    ("repro.scnn.oracle", "oracle_cycles", "scnn.oracle"),
    ("repro.timeloop.energy", "layer_energy_from_densities", "timeloop.energy"),
    ("repro.scnn.simulator", "simulate_layer", "scnn.simulator"),
)

#: Probes of the analytical and transport layers (no per-network tag).
ANALYTICAL_PROBES = (
    ("repro.timeloop.dse", "sweep_densities", "timeloop.dse"),
    ("repro.timeloop.dse", "evaluate_configs", "timeloop.dse"),
    ("repro.timeloop.dse", "evaluate_config", "timeloop.dse"),
    ("repro.analysis.serialization", "simulation_payload", "analysis.serialization"),
    ("repro.analysis.serialization", "engine_run_payload", "analysis.serialization"),
    ("repro.analysis.serialization", "design_points_payload", "analysis.serialization"),
)

#: Experiment ids of ``python -m repro all``, in the order it runs them.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "fig1", "fig7",
    "fig8", "fig9", "fig10", "sec6c", "sec6d",
)

SERVICE_SCENARIOS = ("layer", "network", "dse_sweep")
ADMISSION_TIERS = ("enqueued", "fast_path", "coalesced")


def _catalogue() -> Dict[str, str]:
    units: Dict[str, str] = {
        "trace.overhead_s": "s",
        "trace.coverage.repro_all": "ratio",
        "trace.coverage.network_job": "ratio",
        "cli.import_s": "s",
    }
    units.update({f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS})
    for stage in ("nn.pruning", "nn.inference", "scnn.oracle", "scnn.cycles",
                  "scnn.dcnn", "timeloop.energy"):
        units.update({f"{stage}.busy_s.{net}": "s" for net in NETWORKS})
    units["scnn.oracle.first_call_s"] = "s"
    units.update({f"engine.run_network.self_s.{net}": "s" for net in NETWORKS})
    units["scnn.layers_simulated"] = "count"
    units.update({f"scnn.cycles.total.{net}": "cycles" for net in NETWORKS})
    units.update({f"scnn.oracle.products.{net}": "count" for net in NETWORKS})
    units.update({
        "grid.evaluate_grid.busy_s": "s",
        "grid.cells": "count",
        "grid.ns_per_cell": "ns",
        "grid.cold_s": "s",
        "grid.warm_s": "s",
        "timeloop.dse.busy_s": "s",
        "engine.sweep.self_s": "s",
    })
    units.update({f"service.admission_s.{tier}": "s" for tier in ADMISSION_TIERS})
    units.update({"service.queue_wait_s.p50": "s", "service.queue_wait_s.p90": "s"})
    units.update({f"service.run_s.{name}": "s" for name in SERVICE_SCENARIOS})
    units.update({f"service.job_p50_s.{name}": "s" for name in ("layer", "network")})
    units.update({
        "service.client_poll_gap_s": "s",
        "service.fast_path_ratio": "ratio",
        "service.repeat_share": "ratio",
        "service.coalesced": "count",
        "engine.cache.hit_rate": "ratio",
        "engine.cache.disk_hits": "count",
        "engine.cache.disk_write_failures": "count",
        "analysis.serialization.busy_s": "s",
    })
    units.update({
        f"analysis.serialization.payload_bytes.{name}": "bytes"
        for name in SERVICE_SCENARIOS
    })
    return units


#: Every per-layer metric name and its unit, in report order.
PER_LAYER: Dict[str, str] = _catalogue()


def install(tracer: Tracer, experiments: bool = False) -> None:
    """Put every probe in place (``experiments``: each experiment's ``main`` too)."""
    from repro.engine import SimulationEngine
    from repro.nn.networks import get_network

    spec_network = {
        spec: name for name in NETWORKS for spec in get_network(name).layers
    }

    def network_of_spec(args, kwargs) -> Optional[str]:
        first = args[0] if args else kwargs.get("spec", kwargs.get("workload"))
        # simulate_layer takes the layer's workload, which carries its spec.
        return spec_network.get(getattr(first, "spec", first))

    def scnn_cycles(args, kwargs, result) -> Optional[float]:
        config = args[3] if len(args) > 3 else kwargs.get("config")
        name = getattr(config, "name", config)
        return float(result.cycles) if name in (None, "SCNN") else None

    values = {
        "simulate_layer_cycles": scnn_cycles,
        "nonzero_multiplies": lambda args, kwargs, result: float(result),
    }
    for module, function, layer in STAGE_PROBES:
        tracer.patch_function(
            module, function, layer,
            network_of=network_of_spec, value_of=values.get(function),
        )
    tracer.patch_function(
        "repro.grid", "evaluate_grid", "grid.evaluate_grid",
        value_of=lambda args, kwargs, result: float(result.cells),
    )
    for module, function, layer in ANALYTICAL_PROBES:
        tracer.patch_function(module, function, layer)

    def network_of_call(args, kwargs) -> Optional[str]:
        network = args[1] if len(args) > 1 else kwargs.get("network")
        return str(getattr(network, "name", network)).lower()

    tracer.patch_method(
        SimulationEngine, "run_network", "engine.run_network",
        network_of=network_of_call,
    )
    tracer.patch_method(SimulationEngine, "sweep", "engine.sweep")
    if experiments:
        from repro.experiments.cli import EXPERIMENTS

        for eid in EXPERIMENT_IDS:
            module = EXPERIMENTS[eid][0]
            tracer.patch_function(module.__name__, "main", f"experiments.{eid}")


def stage_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-network stage busy times, run_network self times and exact counts."""
    values: Dict[str, float] = {}
    for net in NETWORKS:
        for stage in ("nn.pruning", "nn.inference", "scnn.oracle", "scnn.cycles",
                      "scnn.dcnn", "timeloop.energy"):
            values[f"{stage}.busy_s.{net}"] = tracer.busy_s(stage, net)
        values[f"engine.run_network.self_s.{net}"] = tracer.self_s(
            "engine.run_network", net
        )
        values[f"scnn.cycles.total.{net}"] = tracer.total("scnn.cycles", net)
        values[f"scnn.oracle.products.{net}"] = tracer.total("scnn.oracle", net)
    # The oracle's one-time cost shows in its first call (AlexNet conv2 in a
    # cold run); on service_mix the warm-up has already paid it.
    values["scnn.oracle.first_call_s"] = tracer.first_call_s(
        "scnn.oracle", "nonzero_multiplies"
    )
    values["scnn.layers_simulated"] = tracer.calls("scnn.simulator")
    values["grid.evaluate_grid.busy_s"] = tracer.busy_s("grid.evaluate_grid")
    values["grid.cells"] = tracer.total("grid.evaluate_grid")
    if values["grid.cells"]:
        values["grid.ns_per_cell"] = (
            values["grid.evaluate_grid.busy_s"] * 1e9 / values["grid.cells"]
        )
    values["timeloop.dse.busy_s"] = tracer.busy_s("timeloop.dse")
    values["engine.sweep.self_s"] = tracer.self_s("engine.sweep")
    values["analysis.serialization.busy_s"] = tracer.busy_s("analysis.serialization")
    return values


def report(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every catalogue metric, 0 where this workload measured nothing."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
