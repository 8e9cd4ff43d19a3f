"""Tests for the Fig. 4 experiment (packet breakdown)."""

import pytest

from repro.experiments import run_experiment


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig4")

    def test_one_row_per_pair(self, result):
        assert len(result.rows) == 4  # quick mode diagonal

    def test_percentages_sum_to_100(self, result):
        for row in result.rows:
            assert row["cpu_percent"] + row["gpu_percent"] == pytest.approx(
                100.0
            )

    def test_both_types_present(self, result):
        for row in result.rows:
            assert row["cpu_percent"] > 0
            assert row["gpu_percent"] > 0

    def test_pair_names(self, result):
        names = [row["pair"] for row in result.rows]
        assert "FA+DCT" in names
