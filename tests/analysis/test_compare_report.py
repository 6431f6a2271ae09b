"""Unit tests for comparison normalization and ASCII reporting."""

import pytest

from repro.analysis.compare import normalize_exec_time, normalize_throughput
from repro.analysis.report import render_bars, render_table
from repro.run import RunResult


def result(policy, ops, elapsed_ns):
    return RunResult(
        workload="w",
        policy=policy,
        operations=ops,
        accesses=ops,
        elapsed_ns=elapsed_ns,
        app_ns=elapsed_ns,
        system_ns=0,
    )


def test_normalize_throughput():
    results = {
        "static": result("static", 1000, 1_000_000),
        "multiclock": result("multiclock", 1500, 1_000_000),
    }
    comparison = normalize_throughput(results)
    assert comparison.values["static"] == pytest.approx(1.0)
    assert comparison.values["multiclock"] == pytest.approx(1.5)
    assert comparison.best() == "multiclock"


def test_normalize_exec_time_lower_is_better():
    results = {
        "static": result("static", 1, 2_000_000),
        "multiclock": result("multiclock", 1, 1_000_000),
    }
    comparison = normalize_exec_time(results)
    assert comparison.values["multiclock"] == pytest.approx(0.5)


def test_zero_baseline_rejected():
    results = {"static": result("static", 0, 0)}
    with pytest.raises(ValueError):
        normalize_throughput(results)


def test_render_table_alignment():
    text = render_table(["name", "value"], [["a", 1], ["longer", 22]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "-" in lines[1]


def test_render_bars():
    text = render_bars({"a": 1.0, "b": 2.0}, width=10)
    assert "##########" in text
    assert "(no data)" == render_bars({})


def test_comparison_render_sorted():
    results = {
        "static": result("static", 1000, 1_000_000),
        "multiclock": result("multiclock", 1500, 1_000_000),
    }
    text = normalize_throughput(results).render()
    lines = text.splitlines()
    assert "multiclock" in lines[1]  # best first
