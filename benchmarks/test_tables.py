"""Benchmarks regenerating Tables I, II and V."""

import pytest

from conftest import run_once


def test_table1(benchmark):
    result = run_once(benchmark, "table1")
    print("\n" + result.format_table())
    rows = {r["component"]: r["value"] for r in result.rows}
    assert rows["CPU cores"] == 32
    assert rows["GPU compute units"] == 64


def test_table2(benchmark):
    result = run_once(benchmark, "table2")
    print("\n" + result.format_table())
    rows = {r["component"]: r["value"] for r in result.rows}
    assert rows["Machine Learning"] == 0.018
    assert rows["Control overhead fraction"] < 0.01


def test_table5(benchmark):
    result = run_once(benchmark, "table5")
    print("\n" + result.format_table())
    rows = {r["component"]: r["value"] for r in result.rows}
    assert rows["Laser power @64 WL (W, paper)"] == pytest.approx(1.16)
    assert rows["Laser power @16 WL (W, paper)"] == pytest.approx(0.29)
