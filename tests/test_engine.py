"""Tests for the batched simulation engine (repro.engine).

Three properties matter:

* caching is correct — hits return exactly what a fresh computation would,
  misses recompute, and any input change produces a different key;
* the parallel path is bitwise-identical to the serial path;
* results through the engine equal the plain ``simulate_network`` /
  ``dse.sweep`` reference implementations.
"""

import operator

import numpy as np
import pytest

from repro.engine import (
    ResultCache,
    SimulationEngine,
    WorkloadHandle,
    fingerprint,
    parallel_map,
    resolve_workers,
)
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import build_network_workloads
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network, get_network
from repro.scnn.config import SCNN_CONFIG, scnn_with_pe_count
from repro.scnn.oracle import nonzero_multiplies
from repro.scnn.simulator import simulate_network
from repro.timeloop.dse import default_candidates, sweep

from _helpers import make_workload


@pytest.fixture(scope="module")
def tiny_network() -> Network:
    return Network(
        "EngineNet",
        (
            ConvLayerSpec("e1", 3, 8, 14, 14, 3, 3, padding=1),
            ConvLayerSpec("e2", 8, 16, 14, 14, 3, 3, padding=1),
            ConvLayerSpec("e3", 16, 8, 7, 7, 1, 1),
        ),
    )


@pytest.fixture(scope="module")
def reference_simulation(tiny_network):
    return simulate_network(tiny_network, seed=0)


def assert_simulations_identical(left, right):
    assert len(left.layers) == len(right.layers)
    for a, b in zip(left.layers, right.layers):
        assert a.layer_name == b.layer_name
        assert a.scnn.cycles == b.scnn.cycles
        assert a.scnn.products == b.scnn.products
        assert np.array_equal(a.scnn.busy_cycles_per_pe, b.scnn.busy_cycles_per_pe)
        assert a.dcnn.cycles == b.dcnn.cycles
        assert a.oracle_cycles == b.oracle_cycles
        assert a.output_density == b.output_density
        assert set(a.energy) == set(b.energy)
        for name in a.energy:
            assert a.energy[name].total == b.energy[name].total


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("unit", value=1)
        assert cache.get(key) is None
        cache.put(key, {"cycles": 42})
        assert cache.get(key) == {"cycles": 42}
        assert cache.hits == 1 and cache.misses == 1
        assert key in cache and len(cache) == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("unit", value=2)
        cache.put(key, "payload")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()  # bad entry deleted, next put recreates it

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(3):
            cache.put(fingerprint("unit", value=value), value)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_lru_eviction_respects_the_bound(self, tmp_path):
        import os

        cache = ResultCache(tmp_path, max_entries=2)
        keys = [fingerprint("unit", value=value) for value in range(3)]
        for age, (key, value) in enumerate(zip(keys[:2], range(2))):
            cache.put(key, value)
            # Order the entries' mtimes explicitly: the filesystem clock may
            # not tick between two immediate writes.
            os.utime(cache._path(key), (age, age))
        assert cache.get(keys[0]) is not None  # touches entry 0: now newest
        cache.put(keys[2], 2)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(keys[1]) is None  # the untouched entry was evicted
        assert cache.get(keys[0]) == 0
        assert cache.get(keys[2]) == 2

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(5):
            cache.put(fingerprint("unit", value=value), value)
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)


class TestFingerprint:
    def test_any_input_change_changes_the_key(self, tiny_network):
        sparsity = network_sparsity(tiny_network)
        base = fingerprint("net", network=tiny_network, seed=0, sparsity=sparsity,
                           config=SCNN_CONFIG)
        assert base == fingerprint("net", network=tiny_network, seed=0,
                                   sparsity=sparsity, config=SCNN_CONFIG)
        assert base != fingerprint("net", network=tiny_network, seed=1,
                                   sparsity=sparsity, config=SCNN_CONFIG)
        assert base != fingerprint("net", network=tiny_network, seed=0,
                                   sparsity=sparsity, config=scnn_with_pe_count(16))
        assert base != fingerprint("other", network=tiny_network, seed=0,
                                   sparsity=sparsity, config=SCNN_CONFIG)

    def test_tensor_content_addresses_raw_workloads(self, small_spec):
        workload = make_workload(small_spec)
        same = make_workload(small_spec)
        different = make_workload(small_spec, seed=7)
        assert fingerprint("wl", workload=workload) == fingerprint("wl", workload=same)
        assert fingerprint("wl", workload=workload) != fingerprint(
            "wl", workload=different
        )

    def test_handle_materialization_does_not_change_the_key(self, tiny_network):
        sparsity = network_sparsity(tiny_network)
        spec = tiny_network.layers[0]
        handle = WorkloadHandle("EngineNet", 0, 0, spec, sparsity[spec.name])
        handle.materialize()
        slim = WorkloadHandle("EngineNet", 0, 0, spec, sparsity[spec.name])
        assert fingerprint("wl", workload=handle) == fingerprint("wl", workload=slim)


class TestWorkloadHandle:
    def test_regenerates_exact_tensors(self, tiny_network):
        workloads = build_network_workloads(tiny_network, seed=0)
        sparsity = network_sparsity(tiny_network)
        for index, (spec, workload) in enumerate(
            zip(tiny_network.layers, workloads)
        ):
            handle = WorkloadHandle(
                network_name=tiny_network.name, seed=0, index=index, spec=spec,
                target=sparsity[spec.name],
            )
            assert handle.weight_density == workload.weight_density
            assert handle.activation_density == workload.activation_density
            assert np.array_equal(handle.weights, workload.weights)
            assert np.array_equal(handle.activations, workload.activations)
            assert nonzero_multiplies(
                spec, handle.weights, handle.activations
            ) == nonzero_multiplies(spec, workload.weights, workload.activations)

    def test_pickle_drops_tensors_and_survives_round_trip(self, tiny_network):
        import pickle

        sparsity = network_sparsity(tiny_network)
        spec = tiny_network.layers[0]
        handle = WorkloadHandle(tiny_network.name, 0, 0, spec, sparsity[spec.name])
        handle.materialize()
        assert handle._materialized is not None
        restored = pickle.loads(pickle.dumps(handle))
        assert restored._materialized is None
        assert np.array_equal(restored.weights, handle.weights)
        assert len(pickle.dumps(handle)) < 2000  # recipe, not tensors


class TestEngineNetworkSimulation:
    def test_serial_engine_matches_simulate_network(
        self, tiny_network, reference_simulation
    ):
        engine = SimulationEngine(cache_dir=False)
        assert_simulations_identical(
            engine.run_network(tiny_network, seed=0), reference_simulation
        )

    def test_parallel_identical_to_serial(self, tiny_network, reference_simulation):
        engine = SimulationEngine(cache_dir=False)
        parallel = engine.run_network(tiny_network, seed=0, parallel=2)
        assert_simulations_identical(parallel, reference_simulation)

    def test_memory_cache_returns_same_object(self, tiny_network):
        engine = SimulationEngine(cache_dir=False)
        first = engine.run_network(tiny_network, seed=0)
        second = engine.run_network(tiny_network, seed=0)
        assert second is first
        assert engine.memory_hits == 1

    def test_disk_cache_hit_across_engines(
        self, tiny_network, reference_simulation, tmp_path
    ):
        writer = SimulationEngine(cache_dir=tmp_path)
        writer.run_network(tiny_network, seed=0)
        reader = SimulationEngine(cache_dir=tmp_path)
        restored = reader.run_network(tiny_network, seed=0)
        assert reader.disk_cache.hits == 1
        assert_simulations_identical(restored, reference_simulation)
        # The restored simulation's workloads rematerialise real tensors.
        assert restored.layers[0].workload.weights.shape == (8, 3, 3, 3)

    def test_seed_change_is_a_miss(self, tiny_network, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.run_network(tiny_network, seed=0)
        engine.run_network(tiny_network, seed=1)
        assert len(engine.disk_cache) == 2

    def test_clear_cache(self, tiny_network, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.run_network(tiny_network, seed=0)
        engine.clear_cache()
        assert len(engine.disk_cache) == 0
        assert engine.stats()["memory_entries"] == 0

    def test_memory_memo_table_lru_bound(self, tiny_network):
        engine = SimulationEngine(cache_dir=False, memory_max_entries=2)
        for seed in range(3):
            engine.run_network(tiny_network, seed=seed)
        stats = engine.stats()
        assert stats["memory_entries"] == 2
        assert stats["memory_evictions"] == 1
        # The oldest entry (seed 0) was evicted; seed 2 is still memoised.
        warm = engine.run_network(tiny_network, seed=2)
        assert engine.run_network(tiny_network, seed=2) is warm
        with pytest.raises(ValueError):
            SimulationEngine(cache_dir=False, memory_max_entries=0)

    def test_stats_reports_hit_rate(self, tiny_network, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        assert engine.stats()["hit_rate"] == 0.0
        engine.run_network(tiny_network, seed=0)
        engine.run_network(tiny_network, seed=0)  # memo-table hit
        warm = SimulationEngine(cache_dir=tmp_path)
        warm.run_network(tiny_network, seed=0)  # disk hit
        stats = engine.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        warm_stats = warm.stats()
        assert warm_stats["disk_hits"] == 1
        assert warm_stats["hits"] == 1 and warm_stats["misses"] == 0
        assert warm_stats["hit_rate"] == 1.0


class TestEngineRunNetworks:
    @pytest.fixture(scope="class")
    def second_network(self) -> Network:
        return Network(
            "EngineNetB",
            (
                ConvLayerSpec("b1", 4, 12, 10, 10, 3, 3, padding=1),
                ConvLayerSpec("b2", 12, 6, 10, 10, 1, 1),
            ),
        )

    def test_pooled_pass_identical_to_simulate_network(
        self, tiny_network, second_network
    ):
        engine = SimulationEngine(cache_dir=False)
        simulations = engine.run_networks(
            [tiny_network, second_network, "alexnet"], seed=0, parallel=2
        )
        references = [
            simulate_network(tiny_network, seed=0),
            simulate_network(second_network, seed=0),
            simulate_network(get_network("alexnet"), seed=0),
        ]
        assert [s.network.name for s in simulations] == [
            "EngineNet", "EngineNetB", "AlexNet"
        ]
        for simulation, reference in zip(simulations, references):
            assert_simulations_identical(simulation, reference)

    def test_later_run_network_is_a_memo_hit(self, tiny_network, second_network):
        engine = SimulationEngine(cache_dir=False)
        simulations = engine.run_networks([tiny_network, second_network])
        hits = engine.stats()["hits"]
        assert engine.run_network(second_network) is simulations[1]
        assert engine.run_network(tiny_network) is simulations[0]
        assert engine.stats()["hits"] - hits == 2

    def test_cached_and_repeated_networks_simulated_once(self, tiny_network):
        engine = SimulationEngine(cache_dir=False)
        first = engine.run_network(tiny_network)
        again = engine.run_networks([tiny_network, tiny_network])
        assert again[0] is first and again[1] is first
        assert engine.stats()["memory_entries"] == 1


class TestEngineRunGrid:
    @pytest.fixture(scope="class")
    def workloads(self, tiny_network):
        return build_network_workloads(tiny_network, seed=0)

    def test_grid_covers_every_cell(self, workloads):
        engine = SimulationEngine(cache_dir=False)
        configs = [SCNN_CONFIG, scnn_with_pe_count(16)]
        run = engine.run(workloads, configs)
        assert len(run.results) == len(workloads)
        assert all(len(row) == len(configs) for row in run.results)
        assert run.total_cycles("SCNN") > 0
        with pytest.raises(KeyError) as excinfo:
            run.column("nonexistent")
        # The error names every configuration the run did evaluate.
        assert "'SCNN'" in str(excinfo.value)
        assert "'SCNN-16PE'" in str(excinfo.value)
        with pytest.raises(KeyError):
            run.total_cycles("also-nonexistent")

    @pytest.mark.parametrize("recipes", [False, True], ids=["tensors", "handles"])
    def test_parallel_grid_identical_to_serial(self, workloads, tiny_network, recipes):
        if recipes:  # pooled workers re-synthesise each row's tensors once
            sparsity = network_sparsity(tiny_network)
            workloads = [
                WorkloadHandle(tiny_network.name, 0, index, spec, sparsity[spec.name])
                for index, spec in enumerate(tiny_network.layers)
            ]
        configs = [SCNN_CONFIG, scnn_with_pe_count(16), scnn_with_pe_count(4)]
        serial = SimulationEngine(cache_dir=False).run(workloads, configs)
        parallel = SimulationEngine(cache_dir=False).run(
            workloads, configs, parallel=2
        )
        for row_s, row_p in zip(serial.results, parallel.results):
            for cell_s, cell_p in zip(row_s, row_p):
                assert cell_s.cycles == cell_p.cycles
                assert cell_s.products == cell_p.products
                assert cell_s.multiplier_utilization == cell_p.multiplier_utilization
                assert cell_s.idle_fraction == cell_p.idle_fraction
                assert np.array_equal(
                    cell_s.busy_cycles_per_pe, cell_p.busy_cycles_per_pe
                )

    def test_partly_cached_rows_fill_only_missing_cells(self, workloads):
        engine = SimulationEngine(cache_dir=False)
        configs = [SCNN_CONFIG, scnn_with_pe_count(16)]
        first = engine.run(workloads[:1], configs[1:])
        grid = engine.run(workloads, configs)
        assert grid.results[0][1] is first.results[0][0]
        assert engine.stats()["memory_entries"] == len(workloads) * len(configs)

    def test_cells_individually_cached(self, workloads, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.run(workloads[:2], [SCNN_CONFIG])
        assert len(engine.disk_cache) == 2
        fresh = SimulationEngine(cache_dir=tmp_path)
        fresh.run(workloads[:2], [SCNN_CONFIG])
        assert fresh.disk_cache.hits == 2 and fresh.disk_cache.misses == 0


class TestEngineSweep:
    def test_matches_serial_dse_sweep(self, tiny_network):
        candidates = default_candidates()
        reference = sweep(candidates, tiny_network)
        engine_points = SimulationEngine(cache_dir=False).sweep(
            candidates, tiny_network, parallel=2
        )
        assert [p.name for p in engine_points] == [p.name for p in reference]
        for ours, theirs in zip(engine_points, reference):
            assert ours.cycles == theirs.cycles
            assert ours.energy == theirs.energy
            assert ours.area_mm2 == theirs.area_mm2

    def test_dse_sweep_parallel_flag_routes_through_engine(self, tiny_network):
        candidates = default_candidates()[:3]
        assert [p.cycles for p in sweep(candidates, tiny_network, parallel=2)] == [
            p.cycles for p in sweep(candidates, tiny_network)
        ]

    def test_sweep_cached(self, tiny_network, tmp_path):
        candidates = default_candidates()[:2]
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.sweep(candidates, tiny_network)
        fresh = SimulationEngine(cache_dir=tmp_path)
        fresh.sweep(candidates, tiny_network)
        assert fresh.disk_cache.hits == 2


class TestResolveWorkers:
    def test_serial_sentinels(self):
        assert resolve_workers(None, 10) == 0
        assert resolve_workers(0, 10) == 0
        assert resolve_workers(1, 10) == 0
        assert resolve_workers(4, 0) == 0

    def test_bounded_by_tasks_and_cpus(self):
        import os

        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(-1, 2) == min(usable, 2)

    def test_one_usable_cpu_runs_serially(self, monkeypatch):
        """A process pinned to one CPU never forks, however many the host has."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(-1, 10) == 1
        assert parallel_map(_pid, range(4), -1) == [os.getpid()] * 4


def _pid(_task) -> int:
    import os

    return os.getpid()


class TestParallelMapScheduling:
    def test_results_in_submission_order_when_cost_reverses_it(self):
        tasks = list(range(8))
        assert parallel_map(operator.neg, tasks, 2, cost=lambda task: task) == [
            -task for task in tasks
        ]

    def test_pool_dispatches_costliest_first_one_at_a_time(self, monkeypatch):
        from repro.engine import parallel

        dispatched = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, tasks, chunksize):
                assert chunksize == 1
                dispatched.extend(tasks)
                return map(function, tasks)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        tasks = [3, 9, 1, 9, 5]
        costs = {3: 30, 9: 90, 1: 10, 5: 50}
        results = parallel_map(operator.neg, tasks, 2, cost=costs.__getitem__)
        assert dispatched == [9, 9, 5, 3, 1]
        assert results == [-3, -9, -1, -9, -5]
        dispatched.clear()
        parallel_map(operator.neg, tasks, 2)  # no cost: submission order
        assert dispatched == tasks


class TestEngineGridPaths:
    def test_sweep_batched_matches_pool_path(self, tiny_network):
        candidates = default_candidates()
        batched = SimulationEngine(cache_dir=False).sweep(candidates, tiny_network)
        pooled = SimulationEngine(cache_dir=False).sweep(
            candidates, tiny_network, parallel=2, batched=False
        )
        for ours, theirs in zip(batched, pooled):
            assert ours.cycles == theirs.cycles
            assert ours.energy == theirs.energy
            assert ours.area_mm2 == theirs.area_mm2

    def test_evaluate_grid_cached_across_engines(self, tiny_network, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        specs = list(tiny_network.layers)
        first = engine.evaluate_grid(
            specs, [SCNN_CONFIG], weight_density=0.4, activation_density=0.5
        )
        fresh = SimulationEngine(cache_dir=tmp_path)
        second = fresh.evaluate_grid(
            specs, [SCNN_CONFIG], weight_density=0.4, activation_density=0.5
        )
        assert fresh.disk_cache.hits == 1
        assert (first.cycles == second.cycles).all()
        assert (first.energy == second.energy).all()

    def test_run_architectures_dense_fast_path_matches_adapters(self, tiny_network):
        sparsity = network_sparsity(tiny_network)
        workloads = [
            WorkloadHandle(tiny_network.name, 0, index, spec, sparsity[spec.name])
            for index, spec in enumerate(tiny_network.layers)
        ]
        architectures = ["DCNN", "DCNN-opt", "SCNN"]
        fast = SimulationEngine(cache_dir=False).run_architectures(
            workloads, architectures
        )
        slow = SimulationEngine(cache_dir=False).run_architectures(
            workloads, architectures, batched=False
        )
        for i in range(len(workloads)):
            for j in range(len(architectures)):
                assert fast.results[i][j] == slow.results[i][j]
