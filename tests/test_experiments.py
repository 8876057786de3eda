"""Tests for the experiment drivers (one per paper table/figure).

The per-layer evaluation experiments (Figures 8-10) are exercised on AlexNet
only — it is the smallest catalogue network — so the whole test suite stays
fast; the full three-network runs are exercised by the benchmark harness.
"""

import pytest

from repro.experiments import (
    fig1_density,
    fig7_sensitivity,
    fig8_performance,
    fig9_utilization,
    fig10_energy,
    sec6c_granularity,
    sec6d_tiling,
    table1_networks,
    table2_design_params,
    table3_area,
    table4_configs,
)


class TestTableExperiments:
    def test_table1_rows(self):
        rows = {row.name: row for row in table1_networks.run()}
        assert set(rows) == {"AlexNet", "GoogLeNet", "VGGNet"}
        assert rows["VGGNet"].total_multiplies_billions > rows["AlexNet"].total_multiplies_billions

    def test_table1_output_mentions_paper_values(self):
        text = table1_networks.main()
        assert "15.3" in text  # paper's VGG multiply count is shown side-by-side

    def test_table2_matches_paper(self):
        for name, (modelled, paper) in table2_design_params.run().items():
            if isinstance(paper, (int, float)) and not isinstance(paper, bool):
                assert modelled == pytest.approx(paper, rel=0.6), name
            else:
                assert str(modelled) == str(paper), name

    def test_table3_pe_total(self):
        breakdown = table3_area.run()
        assert breakdown["PE total"] == pytest.approx(0.123, abs=0.003)
        assert breakdown["Accelerator total (64 PEs)"] == pytest.approx(7.9, abs=0.2)

    def test_table4_configurations(self):
        rows = {row.name: row for row in table4_configs.run()}
        assert rows["SCNN"].area_mm2 > rows["DCNN"].area_mm2
        assert rows["DCNN"].sram_bytes > rows["SCNN"].sram_bytes

    def test_main_functions_return_text(self):
        for module in (table2_design_params, table3_area, table4_configs):
            assert isinstance(module.main(), str)


class TestFigure1:
    def test_measured_densities_near_calibration(self):
        reports = fig1_density.run(networks=("alexnet",))
        report = reports["AlexNet"]
        assert len(report.rows) == 5
        assert report.rows[0].activation_density == pytest.approx(1.0, abs=0.01)
        assert report.average_work_reduction > 2.0

    def test_calibration_mode(self):
        reports = fig1_density.run(networks=("alexnet",), measured=False)
        assert reports["AlexNet"].rows[1].weight_density == pytest.approx(0.38)


class TestFigure7:
    @pytest.fixture(scope="class")
    def points(self):
        return fig7_sensitivity.run(densities=(0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0))

    def test_scnn_slower_than_dcnn_when_dense(self, points):
        dense = [p for p in points if p.density == 1.0][0]
        assert 1.1 < dense.latency_ratio < 1.6  # paper: 1/0.79 ~ 1.27

    def test_scnn_much_faster_when_sparse(self, points):
        sparse = [p for p in points if p.density == 0.1][0]
        assert sparse.scnn_speedup > 12.0  # paper: ~24x

    def test_performance_crossover_near_paper(self, points):
        crossover = fig7_sensitivity.performance_crossover(points)
        assert 0.7 <= crossover <= 0.9  # paper: ~0.85

    def test_energy_crossovers(self, points):
        vs_dcnn = fig7_sensitivity.energy_crossover(points, "DCNN")
        vs_opt = fig7_sensitivity.energy_crossover(points, "DCNN-opt")
        assert 0.7 <= vs_dcnn <= 0.9     # paper: ~0.83
        assert 0.5 <= vs_opt <= 0.7      # paper: ~0.60
        assert vs_opt < vs_dcnn

    def test_dcnn_opt_never_above_dcnn(self, points):
        for point in points:
            assert point.energy["DCNN-opt"] <= point.energy["DCNN"] * (1 + 1e-9)

    def test_latency_monotone_in_density(self, points):
        ordered = sorted(points, key=lambda p: p.density)
        ratios = [p.latency_ratio for p in ordered]
        assert ratios == sorted(ratios)


class TestFigures8To10OnAlexNet:
    @pytest.fixture(scope="class")
    def speedups(self):
        return fig8_performance.run(networks=("alexnet",))

    def test_network_speedup_band(self, speedups):
        report = speedups["AlexNet"]
        assert 1.8 < report.network_speedup < 3.8  # paper: 2.37x
        assert report.oracle_speedup > report.network_speedup
        assert report.paper_speedup == 2.37

    def test_per_layer_rows_include_all(self, speedups):
        labels = [row.label for row in speedups["AlexNet"].rows]
        assert labels == ["conv1", "conv2", "conv3", "conv4", "conv5", "all"]

    def test_oracle_never_below_scnn(self, speedups):
        for row in speedups["AlexNet"].rows:
            assert row.oracle >= row.scnn * 0.999

    def test_utilization_report(self):
        reports = fig9_utilization.run(networks=("alexnet",))
        report = reports["AlexNet"]
        assert len(report.rows) == 5
        for row in report.rows:
            assert 0.0 < row.multiplier_utilization <= 1.0
            assert 0.0 <= row.idle_fraction < 1.0
        assert 0.0 < report.average_utilization <= 1.0

    def test_energy_report(self):
        reports = fig10_energy.run(networks=("alexnet",))
        report = reports["AlexNet"]
        assert report.rows[-1].label == "all"
        assert 0.25 < report.network_scnn < 0.75
        assert 0.35 < report.network_dcnn_opt < 0.75
        improvements = fig10_energy.average_improvements(reports)
        assert improvements["SCNN"] > 1.3
        assert improvements["DCNN-opt"] > 1.3


class TestSectionVIC:
    def test_more_pes_faster_on_googlenet(self):
        """Paper: on GoogLeNet the 64-PE configuration is ~11% faster than the
        4-PE one and utilises the multipliers better (59% vs 35%)."""
        points = sec6c_granularity.run(pe_counts=(64, 4), network_name="googlenet")
        by_count = {point.num_pes: point for point in points}
        assert by_count[64].total_cycles < by_count[4].total_cycles
        assert (
            by_count[64].average_utilization > by_count[4].average_utilization
        )
        assert 1.0 < sec6c_granularity.speedup_64_vs_4(points) < 2.0

    def test_pooled_engine_gives_the_same_points(self, monkeypatch):
        """Through a pooled engine the workers re-synthesise each layer's
        tensors from its recipe; the points must not move."""
        import repro.engine
        from repro.engine import SimulationEngine

        points = {}
        for parallel in (None, 2):
            monkeypatch.setattr(
                repro.engine,
                "_default_engine",
                SimulationEngine(cache_dir=False, parallel=parallel),
            )
            points[parallel] = sec6c_granularity.run(network_name="alexnet")
        assert points[2] == points[None]
        assert [point.num_pes for point in points[2]] == [64, 16, 4]

    def test_missing_pe_count_rejected(self):
        points = sec6c_granularity.run(pe_counts=(64,), network_name="alexnet")
        with pytest.raises(KeyError):
            sec6c_granularity.speedup_64_vs_4(points)


class TestSectionVID:
    def test_alexnet_never_spills(self):
        rows = sec6d_tiling.run(networks=("alexnet",))
        assert len(rows) == 5
        assert all(row.fits_on_chip for row in rows)
        stats = sec6d_tiling.summary(rows)
        assert stats["spilled_layers"] == 0.0
        assert stats["mean_penalty"] == 0.0


class TestFigure7BatchedEquivalence:
    def test_batched_sweep_matches_oracle_loop(self):
        densities = (0.1, 0.55, 1.0)
        batched = fig7_sensitivity.run(densities)
        oracle = fig7_sensitivity.run(densities, batched=False)
        for ours, theirs in zip(batched, oracle):
            assert ours.density == theirs.density
            assert ours.scnn_cycles == theirs.scnn_cycles
            assert ours.dcnn_cycles == theirs.dcnn_cycles
            assert ours.energy == theirs.energy


class TestTable4DensityGrid:
    def test_covers_every_table4_config_and_density(self):
        densities = (0.25, 1.0)
        grid = table4_configs.density_grid(densities, network_name="alexnet")
        names = [config.name for config in grid.configs]
        assert names == [row.name for row in table4_configs.run()]
        assert grid.cycles.shape == (len(names), len(grid.specs), len(densities))
        assert (grid.cycles > 0).all()
        assert (grid.energy > 0).all()
