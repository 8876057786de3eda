"""Tests for the command-line interface (repro.experiments.cli)."""

import pytest

from repro.experiments import cli


class TestParser:
    def test_list_flag(self):
        args = cli.build_parser().parse_args(["--list"])
        assert args.list
        assert args.experiments == []

    def test_experiment_arguments(self):
        args = cli.build_parser().parse_args(["table1", "fig7"])
        assert args.experiments == ["table1", "fig7"]


class TestListing:
    def test_every_experiment_listed(self):
        text = cli.list_experiments()
        for key in cli.EXPERIMENTS:
            assert key in text
        assert "all" in text

    def test_experiment_registry_covers_paper_evaluation(self):
        assert set(cli.EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig1", "fig7", "fig8", "fig9", "fig10",
            "sec6c", "sec6d",
        }


class TestRunExperiments:
    def test_runs_named_experiments(self, capsys):
        executed = cli.run_experiments(["table2", "table3"])
        assert executed == ["table2", "table3"]
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "Table III" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            cli.run_experiments(["fig99"])


class TestServiceDispatch:
    def test_serve_and_submit_route_to_the_service_cli(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.service.cli.serve_main", lambda argv: calls.append(("serve", argv)) or 0
        )
        monkeypatch.setattr(
            "repro.service.cli.submit_main", lambda argv: calls.append(("submit", argv)) or 0
        )
        assert cli.main(["serve", "--port", "8001"]) == 0
        assert cli.main(["submit", "network", "--param", "network=alexnet"]) == 0
        assert calls == [
            ("serve", ["--port", "8001"]),
            ("submit", ["network", "--param", "network=alexnet"]),
        ]

    def test_service_commands_are_not_experiment_ids(self):
        assert not set(cli.SERVICE_COMMANDS) & set(cli.EXPERIMENTS)


class TestCompareDispatch:
    def test_compare_routes_to_the_compare_cli(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.experiments.compare.compare_main",
            lambda argv: calls.append(argv) or 0,
        )
        assert cli.main(["compare", "--networks", "alexnet"]) == 0
        assert calls == [["--networks", "alexnet"]]

    def test_compare_is_not_an_experiment_id(self):
        assert cli.COMPARE_COMMAND not in cli.EXPERIMENTS

    def test_compare_list_flag(self, capsys):
        from repro.experiments.compare import compare_main

        assert compare_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "SCNN-SparseW" in output
        assert "Section VI-C" in output

    def test_compare_unknown_architecture_exit_code(self, capsys):
        from repro.experiments.compare import compare_main

        assert compare_main(["--architectures", "TPU"]) == 2
        assert "unknown architecture" in capsys.readouterr().err

    def test_compare_unknown_workload_exit_code(self, capsys):
        from repro.experiments.compare import compare_main

        assert compare_main(["--network", "lenet"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_compare_unknown_density_profile_exit_code(self, capsys):
        from repro.experiments.compare import compare_main

        assert (
            compare_main(["--network", "alexnet", "--density-profile", "nope"])
            == 2
        )
        assert "unknown density profile" in capsys.readouterr().err

    def test_compare_network_flags_replace_the_default_set(self):
        from repro.experiments.compare import build_compare_parser

        args = build_compare_parser().parse_args(
            ["--network", "plain-cnn-8", "--network", "alexnet"]
        )
        assert args.network == ["plain-cnn-8", "alexnet"]
        assert args.networks is None


class TestWorkloadsDispatch:
    def test_workloads_routes_to_the_workloads_cli(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.experiments.workloads.workloads_main",
            lambda argv: calls.append(argv) or 0,
        )
        assert cli.main(["workloads", "--list"]) == 0
        assert calls == [["--list"]]

    def test_workloads_is_not_an_experiment_id(self):
        assert cli.WORKLOADS_COMMAND not in cli.EXPERIMENTS

    def test_workloads_list_and_profiles(self, capsys):
        from repro.experiments.workloads import workloads_main

        assert workloads_main(["--list", "--profiles"]) == 0
        output = capsys.readouterr().out
        assert "plain-cnn-8" in output
        assert "googlenet-stem" in output
        assert "decay-90-30" in output

    def test_workloads_describe(self, capsys):
        from repro.experiments.workloads import workloads_main

        assert workloads_main(["--describe", "bottleneck-stack-4"]) == 0
        output = capsys.readouterr().out
        assert "block1/reduce" in output
        assert "[w 0.50 / a 0.50]" in output

    def test_workloads_describe_unknown_exit_code(self, capsys):
        from repro.experiments.workloads import workloads_main

        assert workloads_main(["--describe", "lenet"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestMain:
    @pytest.fixture(autouse=True)
    def _isolate_default_engine(self, monkeypatch):
        """main() reconfigures the process-wide engine; undo it afterwards,
        and start each test with no engine and no engine variables."""
        import repro.engine

        monkeypatch.setattr(repro.engine, "_default_engine", None)
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)

    @staticmethod
    def _engine():
        import repro.engine

        return repro.engine._default_engine

    def test_list_exit_code(self, capsys):
        assert cli.main(["--list"]) == 0
        assert "table1" in capsys.readouterr().out
        assert self._engine() is None  # listing configures no engine

    def test_single_experiment_exit_code(self, capsys):
        assert cli.main(["table4"]) == 0
        assert "Table IV" in capsys.readouterr().out
        # By default experiments shard across one worker per usable CPU.
        assert self._engine().parallel == -1

    def test_unknown_experiment_exit_code(self, capsys):
        assert cli.main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parallel_flag_one_is_serial(self, capsys):
        from repro.engine import resolve_workers

        assert cli.main(["--parallel", "1", "table4"]) == 0
        assert self._engine().parallel == 1
        assert resolve_workers(self._engine().parallel, 72) == 0

    def test_environment_one_is_serial(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        assert cli.main(["table4"]) == 0
        assert self._engine().parallel == 1
