"""Workload ``dse_grid``: a closed loop of analytical design-space sweeps.

One caller, one engine.  Each operation is one ``SimulationEngine.sweep``
over the paper's DSE candidates on GoogLeNet (Table I; 54 layers, the
network whose sweep costs most), with per-layer weight and activation
densities drawn from the seed, plus one ``SimulationEngine.evaluate_grid``
of the SCNN/DCNN/DCNN-opt trio over a seeded 8-point density axis.  One
network keeps every operation the same size, so the latency quantiles sit
inside one narrow distribution.  Before each operation, outside its timing,
the engine memo and the solved-binomial memo are cleared: every sweep pays
its fingerprinting and pmf work while the tiling plans, warmed at set-up,
stay warm.

A run draws ``OPERATIONS`` operations and times them in passes, in the
same order, until the window ends, so each operation's samples are spread
over the whole window.  An operation's latency is the fastest of its
samples: on a shared host whose speed drifts by tens of percent over
seconds, the fastest of many samples reads the program's cost, while a
single sample reads the host's load at that moment.
Sampled operations are re-checked after the window against
``batched=False`` and the scalar analytical models.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Tuple

import numpy as np

import probes
from gates import check_design_points, check_grid_cell
from harness import (
    BENCH_DIR,
    latency_metrics,
    median,
    peak_rss_mb,
    time_until_ready,
)

NETWORK = "googlenet"
TRIO = ("SCNN", "DCNN", "DCNN-opt")
DENSITY_POINTS = 8
#: Distinct operations of one run, each timed once per pass.
OPERATIONS = 12
#: Every CHECK_EVERY-th operation is re-checked after the window.
CHECK_EVERY = 2
SETUP_REPEATS = 3
TRACED_OPERATIONS = 60


class Sweeper:
    """The workload's state: candidates, the network and one engine."""

    def __init__(self) -> None:
        from repro.arch import SCNN_CONFIG
        from repro.engine import SimulationEngine
        from repro.nn.networks import get_network
        from repro.timeloop.dse import default_candidates

        self.candidates = [SCNN_CONFIG, *default_candidates()]
        self.layers = list(get_network(NETWORK).layers)
        self.engine = SimulationEngine(cache_dir=False, memory_max_entries=512)

    def draw(self, rng: np.random.Generator):
        """The inputs of one operation: per-layer densities and a density axis."""
        from repro.nn.densities import LayerSparsity

        sparsity = {
            spec.name: LayerSparsity(
                weight_density=float(rng.uniform(0.05, 1.0)),
                activation_density=float(rng.uniform(0.05, 1.0)),
            )
            for spec in self.layers
        }
        axis = np.sort(rng.uniform(0.05, 1.0, DENSITY_POINTS))
        return sparsity, axis

    def operation(self, inputs):
        sparsity, axis = inputs
        points = self.engine.sweep(self.candidates, NETWORK, sparsity=sparsity)
        grid = self.engine.evaluate_grid(
            self.layers, TRIO, weight_density=axis, activation_density=axis
        )
        return points, grid

    def timed(self, inputs) -> Tuple[float, object]:
        from repro.grid import clear_solved_triples

        self.engine.clear_cache()
        clear_solved_triples()
        start = time.perf_counter()
        result = self.operation(inputs)
        return time.perf_counter() - start, result

    def warm(self) -> None:
        """Set-up: one operation fills the tiling-plan caches."""
        self.operation(self.draw(np.random.default_rng(2**31)))

    def check(self, inputs, result, index: int) -> None:
        """Re-evaluate one operation on the reference paths."""
        from repro.arch import resolve_config
        from repro.engine import SimulationEngine
        from repro.timeloop.energy import layer_energy_from_densities
        from repro.timeloop.model import estimate_dense_layer, estimate_scnn_layer

        sparsity, axis = inputs
        points, grid = result
        reference = SimulationEngine(cache_dir=False).sweep(
            self.candidates, NETWORK, sparsity=sparsity, batched=False
        )
        check_design_points(points, reference)
        point = index % DENSITY_POINTS
        density = float(axis[point])
        for c, name in enumerate(TRIO):
            config = resolve_config(name)
            for layer, spec in enumerate(self.layers):
                if config.is_sparse:
                    estimate = estimate_scnn_layer(
                        spec, weight_density=density, activation_density=density,
                        config=config,
                    )
                else:
                    estimate = estimate_dense_layer(spec, config)
                energy = layer_energy_from_densities(
                    spec, config, weight_density=density,
                    activation_density=density, output_density=density,
                    cycles=int(estimate.cycles),
                ).total
                check_grid_cell(grid, c, layer, point, float(estimate.cycles), energy)


def prepare() -> Sweeper:
    sweeper = Sweeper()
    sweeper.warm()
    return sweeper


def setup_seconds() -> float:
    """Median time from a fresh interpreter to a warmed sweeper."""
    argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), "dse_grid"]
    return median(time_until_ready(argv, "READY") for _ in range(SETUP_REPEATS))


def run(seed: int, seconds: float) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    setup = setup_seconds()
    sweeper = prepare()
    rng = np.random.default_rng(seed)
    operations = [sweeper.draw(rng) for _ in range(OPERATIONS)]
    fastest = [float("inf")] * OPERATIONS
    sampled = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, inputs in enumerate(operations):
            seconds_taken, result = sweeper.timed(inputs)
            fastest[index] = min(fastest[index], seconds_taken)
            if passes == 0 and index % CHECK_EVERY == 0:
                sampled.append((index, inputs, result))
        passes += 1
    rss = peak_rss_mb()
    for index, inputs, result in sampled:
        sweeper.check(inputs, result, index)
    metrics = latency_metrics(setup, fastest, OPERATIONS / sum(fastest), rss)
    return passes * OPERATIONS, 0, metrics


def run_traced(seed: int, seconds: float) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    """The same operations untraced, then traced on a fresh engine."""
    from repro.grid import clear_caches, evaluate_grid
    from repro.nn.networks import get_network
    from repro.timeloop.dse import sweep_densities
    from spans import Tracer

    passes = []
    tracer = Tracer()
    for traced in (False, True):
        sweeper = prepare()
        if traced:
            probes.install(tracer)
        rng = np.random.default_rng(seed)
        operations = [sweeper.draw(rng) for _ in range(TRACED_OPERATIONS)]
        results = [sweeper.timed(inputs) for inputs in operations]
        if traced:
            tracer.uninstall()
        passes.append(sum(seconds_taken for seconds_taken, _ in results))
        sweeper.check(operations[0], results[0][1], 0)

    values = probes.stage_metrics(tracer)
    values["trace.overhead_s"] = passes[1] - passes[0]
    # The sweep grid of one operation, with every memo dropped (cold) and
    # again right after (warm).
    weight, activation, output = sweep_densities(get_network(NETWORK), operations[0][0])
    cold, warm = [], []
    for _ in range(5):
        clear_caches()
        for samples in (cold, warm):
            start = time.perf_counter()
            evaluate_grid(sweeper.layers, sweeper.candidates, weight_density=weight,
                          activation_density=activation, output_density=output,
                          model="scnn")
            samples.append(time.perf_counter() - start)
    values["grid.cold_s"] = median(cold)
    values["grid.warm_s"] = median(warm)
    print(f"dse_grid traced: untraced {passes[0]:.3f} s, traced {passes[1]:.3f} s "
          f"over {TRACED_OPERATIONS} operations", file=sys.stderr)
    return 2 * TRACED_OPERATIONS, 0, probes.report(values)
