"""Tests for repro.experiments.tables — Tables I/II/V regeneration."""

import pytest

from repro.experiments import run_experiment, tables
from repro.experiments.tables import table1, table2, table5


class TestTable1:
    def test_core_counts(self):
        rows = {r["component"]: r["value"] for r in table1().rows}
        assert rows["CPU cores"] == 32
        assert rows["GPU compute units"] == 64
        assert rows["Network frequency (GHz)"] == 2.0
        assert rows["L3 (MB)"] == 8


class TestTable2:
    def test_contains_ml_area(self):
        rows = {r["component"]: r["value"] for r in table2().rows}
        assert rows["Machine Learning"] == 0.018
        assert rows["Total chip (mm^2)"] > 0
        assert rows["Control overhead fraction"] < 0.01


class TestTable5:
    def test_paper_laser_powers_present(self):
        rows = {r["component"]: r["value"] for r in table5().rows}
        assert rows["Laser power @64 WL (W, paper)"] == pytest.approx(1.16)
        assert rows["Laser power @8 WL (W, paper)"] == pytest.approx(0.145)

    def test_budget_model_same_order_of_magnitude(self):
        rows = {r["component"]: r["value"] for r in table5().rows}
        paper = rows["Laser power @64 WL (W, paper)"]
        model = rows["Laser power @64 WL (W, budget model)"]
        assert 0.05 < model / paper < 20

    def test_receiver_sensitivity(self):
        rows = {r["component"]: r["value"] for r in table5().rows}
        assert rows["Receiver sensitivity (dBm)"] == -15.0


class TestCombined:
    def test_run_concatenates_all(self):
        combined = run_experiment(tables)
        names = {row["table"] for row in combined.rows}
        assert len(names) == 3
