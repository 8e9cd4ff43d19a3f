"""Public-API contract tests: everything advertised imports and works."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.cache",
            "repro.config",
            "repro.config_io",
            "repro.core",
            "repro.experiments",
            "repro.ml",
            "repro.noc",
            "repro.power",
            "repro.traffic",
            "repro.viz",
        ],
    )
    def test_subpackages_import(self, module):
        imported = importlib.import_module(module)
        assert imported is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.cache",
            "repro.core",
            "repro.ml",
            "repro.noc",
            "repro.power",
            "repro.traffic",
            "repro.viz",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"

    def test_quickstart_docstring_code_runs(self):
        """The README/module quickstart snippet stays valid."""
        from repro import PearlConfig, PearlNetwork, PowerPolicyKind
        from repro.config import SimulationConfig
        from repro.traffic import generate_pair_trace, get_benchmark

        config = PearlConfig(
            simulation=SimulationConfig(warmup_cycles=50, measure_cycles=400)
        )
        trace = generate_pair_trace(
            get_benchmark("fluidanimate"),
            get_benchmark("dct"),
            config.architecture,
            duration=config.simulation.total_cycles,
        )
        network = PearlNetwork(
            config, power_policy=PowerPolicyKind.REACTIVE
        )
        result = network.run(trace)
        assert result.throughput() >= 0.0
        assert result.mean_laser_power_w > 0.0

    def test_cli_entry_point_exists(self):
        from repro.cli import main

        assert callable(main)

    def test_experiment_registry_complete(self):
        from repro.experiments import REGISTRY

        for fig in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "fig11"):
            assert fig in REGISTRY
        for table in ("table1", "table2", "table5"):
            assert table in REGISTRY

    def test_job_engine_import_loads_no_experiment(self):
        """Workers and servers import the job engine alone; the
        experiment modules load only when the registry is used."""
        from repro.experiments import REGISTRY, _ENTRIES

        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        program = (
            "import sys, repro.experiments.parallel; "
            "print(' '.join(sorted(sys.modules)))"
        )
        loaded = set(
            subprocess.run(
                [sys.executable, "-c", program],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout.split()
        )
        experiments = {
            f"repro.experiments.{module}" for module, _ in _ENTRIES.values()
        }
        assert "repro.experiments.parallel" in loaded
        assert not loaded & experiments
        listed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "list"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout.split()
        assert listed == list(REGISTRY)
