"""Tests for the pearl-sim CLI."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep CLI-triggered result-cache writes out of the repo tree."""
    monkeypatch.setenv(
        "PEARL_RESULT_CACHE_DIR", str(tmp_path / "result_cache")
    )


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "fig9", "table1", "ml_quality", "headline"):
            assert name in out


class TestExperiment:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_table_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "CPU cores" in out


class TestEngineFlags:
    def test_jobs_flag_parallel_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PEARL_RESULT_CACHE_DIR", str(tmp_path / "rc"))
        assert main(["experiment", "fig4", "--jobs", "2"]) == 0
        serial_out = capsys.readouterr().out
        # The parallel run populated the cache; a repeat hits it and
        # prints the identical table.
        assert main(["experiment", "fig4", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out
        assert (tmp_path / "rc").exists()

    def test_no_cache_skips_disk(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PEARL_RESULT_CACHE_DIR", str(tmp_path / "rc"))
        assert main(["experiment", "fig4", "--no-cache"]) == 0
        assert not (tmp_path / "rc").exists()

    def test_invalid_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig4", "--jobs", "0"])

    def test_engine_restored_after_run(self):
        from repro.experiments.parallel import current_engine

        before = current_engine()
        assert main(["experiment", "fig4", "--jobs", "2"]) == 0
        assert current_engine() is before


class TestSimulate:
    def test_static_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--cpu",
                "fluidanimate",
                "--gpu",
                "dct",
                "--cycles",
                "1000",
                "--warmup",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput_flits_per_cycle" in out
        assert "residency" in out

    def test_reactive_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "reactive",
                "--cycles",
                "1000",
                "--warmup",
                "100",
                "--window",
                "200",
            ]
        )
        assert code == 0

    def test_fcfs_flag(self, capsys):
        code = main(
            ["simulate", "--fcfs", "--cycles", "800", "--warmup", "100"]
        )
        assert code == 0

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--cpu", "unknown"])

    def test_collective_workload(self, capsys):
        code = main(
            [
                "simulate",
                "--workload",
                "collective:alltoall",
                "--policy",
                "reactive",
                "--cycles",
                "1000",
                "--warmup",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "collective:alltoall" in out

    def test_pam4_signaling(self, capsys):
        code = main(
            [
                "simulate",
                "--signaling",
                "pam4",
                "--cycles",
                "800",
                "--warmup",
                "100",
            ]
        )
        assert code == 0
        assert "signaling=pam4" in capsys.readouterr().out

    def test_rejects_unknown_collective_at_parse_time(self, capsys):
        """Argument parsing (not the run) rejects a bad algorithm and
        names the valid ones."""
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "collective:ring_of_fire"])
        err = capsys.readouterr().err
        assert "allreduce_ring" in err

    def test_rejects_malformed_workload(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "bogus"])

    def test_rejects_unknown_signaling(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--signaling", "qam16"])

    def test_engine_option_is_gone(self, capsys):
        """``simulate`` runs its job through the job engine, on the array
        core like every production path; the reference engine is reached
        through ``PearlNetwork.run`` only."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--sim-engine", "reference"])
        assert excinfo.value.code == 2
        assert "--sim-engine" in capsys.readouterr().err

    def test_rejects_static_state_off_the_ladder(self):
        """A spec-validation error exits with its message, no traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--static-state", "40", "--cycles", "200"])
        message = str(excinfo.value.code)
        assert "40" in message
        assert "(64, 48, 32, 16, 8)" in message


class TestSharedRunFlags:
    """``simulate`` and ``sweep`` define the run flags in one place."""

    SHARED = [
        "--window", "200",
        "--cycles", "3000",
        "--warmup", "300",
        "--workload", "collective:allreduce_ring",
        "--signaling", "pam4",
        "--model", "production",
    ]

    def _parse(self, *argv):
        from repro.cli import _build_parser

        return _build_parser().parse_args(list(argv))

    def test_both_subcommands_parse_to_the_same_run_config(self):
        from repro.cli import _run_config

        simulate = self._parse("simulate", *self.SHARED)
        sweep = self._parse("sweep", *self.SHARED)
        for name in ("window", "cycles", "warmup", "workload", "signaling",
                     "model"):
            assert getattr(simulate, name) == getattr(sweep, name), name
        assert _run_config(simulate) == _run_config(sweep)
        config = _run_config(sweep)
        assert config.power_scaling.reservation_window == 200
        assert config.simulation.total_cycles == 3300
        assert config.photonic.signaling == "pam4"

    def test_defaults_agree(self):
        from repro.cli import _run_config

        assert _run_config(self._parse("simulate")) == _run_config(
            self._parse("sweep")
        )

    @pytest.mark.parametrize(
        "argv", [("simulate", "--policy"), ("sweep", "--policies")]
    )
    def test_policy_choices_are_every_policy_but_random(self, argv, capsys):
        from repro.noc.router import PowerPolicyKind

        for kind in PowerPolicyKind:
            if kind is PowerPolicyKind.RANDOM:
                with pytest.raises(SystemExit):
                    self._parse(*argv, kind.value)
            else:
                self._parse(*argv, kind.value)


class TestModelReference:
    """``--model REF`` is resolved against the registry once."""

    @pytest.fixture
    def registry(self, tmp_path, monkeypatch):
        from repro.ml.lifecycle.registry import ModelRegistry

        from .oracle import literal_model

        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path / "registry"))
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.put(literal_model(), training={"key": {"cli": 1}})
        registry.promote(record.model_id, "served")
        return registry

    def test_a_tag_costs_one_tags_read_and_no_scan(
        self, registry, monkeypatch
    ):
        from repro.cli import _build_parser, _ml_model_path
        from repro.ml.lifecycle.registry import ModelRegistry

        reads, scans = [], []
        read_tags = ModelRegistry._read_tags
        iter_dirs = ModelRegistry._iter_object_dirs
        monkeypatch.setattr(
            ModelRegistry,
            "_read_tags",
            lambda self: reads.append(1) or read_tags(self),
        )
        monkeypatch.setattr(
            ModelRegistry,
            "_iter_object_dirs",
            lambda self: scans.append(1) or iter_dirs(self),
        )
        args = _build_parser().parse_args(["simulate", "--model", "served"])
        path = _ml_model_path(args)
        assert (len(reads), len(scans)) == (1, 0)
        assert path == str(registry.model_path("served"))

    def test_unknown_reference_exits_with_its_message(self, registry):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy", "ml", "--model", "nope"])
        assert str(excinfo.value.code) == (
            "--model nope: \"unknown model reference 'nope'\""
        )


class TestModelList:
    def test_lists_a_model_without_a_validation_score(
        self, tmp_path, monkeypatch, capsys
    ):
        """Retrain jobs register refit models with no validation NRMSE
        in the default registry; ``model list`` prints ``-`` for it."""
        from repro.ml.lifecycle.registry import ModelRegistry

        from .oracle import literal_model

        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path))
        record = ModelRegistry(tmp_path).put(
            literal_model(), training={"key": {"origin": "online-retrain"}}
        )
        assert main(["model", "list"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[0] == record.model_id
        assert row[2] == "-"

    def test_key_column_prints_each_records_own_key(
        self, tmp_path, monkeypatch, capsys
    ):
        """A default-pipeline record and an online-retrain refit each
        show their own training-key fields, sorted by name."""
        from repro.ml.lifecycle.registry import ModelRegistry
        from repro.ml.pipeline import _training_key

        from .oracle import literal_model, toy_model

        monkeypatch.setenv("PEARL_REGISTRY_DIR", str(tmp_path))
        registry = ModelRegistry(tmp_path)
        default = registry.put(
            toy_model(),
            training={"key": _training_key(200, True, 7)},
            metrics={"validation_nrmse": 0.25},
        )
        registry.promote(default.model_id)
        refit = registry.put(
            literal_model(),
            training={
                "key": {
                    "origin": "online-retrain",
                    "cycle": 1200,
                    "window": 200,
                    "samples": 48,
                    "event": 0,
                }
            },
        )
        assert main(["model", "list"]) == 0
        lines = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()[1:]
        }
        assert lines[default.model_id].endswith(
            "0.250  pipeline=two_phase_default quick=True "
            "reservation_window=200 seed=7 [production]"
        )
        assert lines[refit.model_id].endswith(
            "-  cycle=1200 event=0 origin=online-retrain samples=48 "
            "window=200"
        )
        assert "None" not in "".join(lines.values())


class TestSweepCache:
    def test_no_cache_is_rejected_before_any_work(self, monkeypatch):
        """A sweep's results go through the shared cache, so ``sweep``
        has no ``--no-cache``: argparse rejects it with status 2 before
        the default ML model is prepared (or trained)."""
        import repro.cli

        def prepare_model(args):
            raise AssertionError("the ML model was prepared")

        monkeypatch.setattr(repro.cli, "_ml_model_path", prepare_model)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--no-cache", "--policies", "ml"])
        assert excinfo.value.code == 2


class TestCacheBackendFlag:
    """A malformed ``--cache-backend`` or ``$PEARL_RESULT_CACHE_BACKEND``
    is a usage error on every command that opens a result store: status
    2, one error line naming the value, nothing opened or created."""

    COMMANDS = [
        ["experiment", "table1"],
        ["all"],
        ["sweep"],
        ["serve"],
        ["cache", "stats"],
        ["cache", "prune", "--max-gb", "0"],
    ]

    @pytest.mark.parametrize("value", ["bogus:x", "dir:"])
    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=[" ".join(argv[:2]) for argv in COMMANDS]
    )
    def test_malformed_value_is_a_usage_error(
        self, argv, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--cache-backend", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --cache-backend:" in err.splitlines()[-1]
        assert f"cache backend {value!r}" in err.splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["bogus:x", "dir:"])
    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=[" ".join(argv[:2]) for argv in COMMANDS]
    )
    def test_malformed_env_value_is_a_usage_error(
        self, argv, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PEARL_RESULT_CACHE_BACKEND", value)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert "PEARL_RESULT_CACHE_BACKEND" in err
        assert f"cache backend {value!r}" in err
        assert list(tmp_path.iterdir()) == []

    def test_flag_overrides_a_malformed_env_value(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PEARL_RESULT_CACHE_BACKEND", "bogus:x")
        store = tmp_path / "store"
        assert main(["cache", "stats", "--cache-backend", f"dir:{store}"]) == 0
        assert "entries" in capsys.readouterr().out


class TestChart:
    def test_chart_flag_renders(self, capsys):
        # fig4 is trace-only, so this stays fast.
        assert main(["experiment", "fig4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "Fig.4" in out
        assert "│" in out

    def test_chart_flag_without_renderer(self, capsys):
        assert main(["experiment", "table1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "no chart renderer" in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestUnknownSubcommand:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_obs_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "frobnicate"])
        assert excinfo.value.code == 2


class TestObsReport:
    def test_report_renders_summary(self, capsys):
        assert main(["obs", "report", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "# provenance" in out
        assert "# metrics" in out
        assert "engine/jobs_executed" in out

    def test_report_json_is_machine_readable(self, capsys):
        import json

        assert main(["obs", "report", "fig4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["experiment"] == "fig4"
        names = {row["name"] for row in doc["metrics"]}
        assert "engine/jobs_executed" in names

    def test_report_unknown_experiment(self, capsys):
        assert main(["obs", "report", "fig99"]) == 2

    def test_report_writes_trace_artifacts(self, capsys, tmp_path):
        stem = tmp_path / "run"
        assert main(["obs", "report", "fig4", "--trace", str(stem)]) == 0
        assert (tmp_path / "run.jsonl").exists()
        assert (tmp_path / "run.trace.json").exists()

    def test_telemetry_disabled_after_report(self):
        from repro.obs import OBS

        assert main(["obs", "report", "fig4"]) == 0
        assert not OBS.enabled

    def test_invalid_sample_every_rejected(self):
        with pytest.raises(SystemExit):
            main(["obs", "report", "fig4", "--sample-every", "0"])


class TestTraceFlag:
    def test_experiment_trace_exports_artifacts(self, capsys, tmp_path):
        stem = tmp_path / "exp"
        assert main(
            ["experiment", "fig4", "--no-cache", "--trace", str(stem)]
        ) == 0
        import json

        lines = [
            json.loads(line)
            for line in (tmp_path / "exp.jsonl").read_text().splitlines()
        ]
        assert lines[0]["type"] == "provenance"
        assert lines[0]["provenance"]["command"] == "experiment"

    def test_simulate_trace_exports_artifacts(self, capsys, tmp_path):
        stem = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--cycles",
                "1000",
                "--warmup",
                "100",
                "--trace",
                str(stem),
            ]
        )
        assert code == 0
        import json

        doc = json.loads((tmp_path / "sim.trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "sim/measure" in names

    def test_simulate_trace_merges_like_an_experiment(self, capsys, tmp_path):
        """The one job's telemetry merges under the ``job0`` stream, and
        the provenance records the engine that ran."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        stem = tmp_path / "sim"
        assert main(
            [
                "simulate",
                "--policy",
                "reactive",
                "--cycles",
                "1000",
                "--warmup",
                "100",
                "--trace",
                str(stem),
            ]
        ) == 0
        check = Path(__file__).resolve().parent.parent / "scripts" / "check_trace.py"
        subprocess.run([sys.executable, str(check), str(stem)], check=True)
        records = [
            json.loads(line)
            for line in (tmp_path / "sim.jsonl").read_text().splitlines()
        ]
        provenance = records[0]["provenance"]
        assert provenance["engines_used"] == {"array": 1}
        assert "engine_requested" not in provenance
        assert "engine_used" not in provenance
        streams = {r["stream"] for r in records if r["type"] == "event"}
        assert streams == {"job0"}
        metrics = {r["name"]: r for r in records if r["type"] == "metric"}
        assert metrics["engine/jobs_executed"]["value"] == 1

    def test_traced_rerun_executes_its_jobs(self, capsys, tmp_path, monkeypatch):
        """An untraced run's cache entries carry no telemetry, so a
        traced rerun of the same experiment must execute its jobs."""
        import json

        monkeypatch.chdir(tmp_path)
        for name in ("PEARL_RESULT_CACHE_DIR", "PEARL_RESULT_CACHE_BACKEND"):
            monkeypatch.delenv(name, raising=False)
        assert main(["experiment", "fig4"]) == 0
        untraced = capsys.readouterr().out
        assert main(["experiment", "fig4", "--trace", "warm"]) == 0
        assert capsys.readouterr().out == untraced
        metrics = {
            record["name"]: record
            for record in map(
                json.loads, (tmp_path / "warm.jsonl").read_text().splitlines()
            )
            if record["type"] == "metric"
        }
        assert metrics["engine/jobs_executed"]["value"] > 0

    def test_trace_flag_leaves_telemetry_disabled(self, tmp_path):
        from repro.obs import OBS

        assert main(
            [
                "experiment",
                "fig4",
                "--no-cache",
                "--trace",
                str(tmp_path / "t"),
            ]
        ) == 0
        assert not OBS.enabled
