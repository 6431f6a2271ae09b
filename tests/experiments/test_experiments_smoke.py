"""Smoke tests for every experiment module at miniature scale.

The benchmarks run the experiments at figure scale and assert the
paper's shapes; these tests only assert that each experiment's plumbing
works — structure of results, renderability, determinism — so failures
in experiment code surface in the fast suite.
"""

import pytest

from repro.experiments.ablation_dirty import render_ablation_dirty, run_ablation_dirty
from repro.experiments.ablation_ratio import render_ablation_ratio, run_ablation_ratio
from repro.experiments.common import TIME_SCALE, run_ycsb_sequence, scale, scaled_config
from repro.experiments.fig1_heatmaps import render_fig1, run_fig1
from repro.experiments.fig2_frequency import render_fig2, run_fig2
from repro.experiments.fig4_transitions import render_fig4, run_fig4
from repro.experiments.fig5_ycsb import render_fig5, run_fig5
from repro.experiments.fig6_gapbs import render_fig6, run_fig6
from repro.experiments.fig7_memory_mode import render_fig7, run_fig7
from repro.experiments.fig8_promotions import render_fig8, run_fig8
from repro.experiments.fig9_reaccess import render_fig9, run_fig9
from repro.experiments.fig10_interval import render_fig10, run_fig10
from repro.experiments.overhead import render_overhead, run_overhead
from repro.experiments.table1_features import render_table1, run_table1
from repro.experiments.table2_inventory import render_table2, run_table2


def test_scale_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.0")
    assert scale(100) == 200
    monkeypatch.setenv("REPRO_SCALE", "0.001")
    assert scale(100) == 1  # floored at one


def test_scaled_config_applies_time_scale():
    config = scaled_config(dram_pages=100, pm_pages=400, interval_s=1.0)
    assert config.daemons.kpromoted_interval_s == pytest.approx(TIME_SCALE)
    assert config.stats_window_s == pytest.approx(20.0 * TIME_SCALE)


def test_run_ycsb_sequence_returns_all_phases():
    config = scaled_config(dram_pages=128, pm_pages=1024)
    results = run_ycsb_sequence(
        "static", config, n_records=300, ops_per_phase=200, phases=("A", "C")
    )
    # The warm-up Load phase is reported too; paper-phase keys unchanged.
    assert set(results) == {"load", "A", "C"}
    assert all(results[phase].operations == 200 for phase in ("A", "C"))
    assert results["load"].operations == 300  # one insert per record
    assert not results["load"].ops_fallback


def test_fig1_smoke():
    heatmaps = run_fig1(pages=200, segments=6, ops_per_segment=500)
    assert len(heatmaps) == 4
    assert render_fig1(heatmaps)


def test_fig2_smoke():
    analyses = run_fig2(pages=200, segments=6, ops_per_segment=500)
    assert len(analyses) == 4
    assert "aggregate" not in render_fig2(analyses)  # table view, not raw dump
    assert "multi/single" in render_fig2(analyses)


def test_fig4_smoke():
    data = run_fig4(ops=5000)
    assert "observed_states" in data
    assert "edge 10" in render_fig4(data)


def test_fig5_smoke():
    comparisons = run_fig5(
        n_records=400, ops_per_phase=500,
        policies=("static", "multiclock"), phases=("A",),
    )
    assert set(comparisons) == {"A"}
    assert comparisons["A"].values["static"] == pytest.approx(1.0)
    assert render_fig5(comparisons)


def test_fig6_smoke():
    comparisons = run_fig6(
        scale_exp=8, edge_factor=4, trials=1,
        policies=("static", "multiclock"), kernels=("bfs",),
    )
    assert set(comparisons) == {"bfs"}
    assert render_fig6(comparisons)


def test_fig7_smoke():
    comparisons = run_fig7(
        n_records=400, ops_per_phase=500, pr_scale=8, phases=("A",)
    )
    assert "ycsb-A" in comparisons and "gapbs-pr" in comparisons
    assert render_fig7(comparisons)


def test_fig8_smoke():
    series = run_fig8(n_records=400, ops=1500, policies=("multiclock",))
    assert "multiclock" in series
    assert render_fig8(series)


def test_fig9_smoke():
    series = run_fig9(n_records=400, ops=1500, policies=("multiclock",))
    assert series["multiclock"].overall_percentage >= 0.0
    assert render_fig9(series)


def test_fig10_smoke():
    sweeps = run_fig10(
        n_records=400, ops=800, intervals=(0.5, 5.0), policies=("multiclock",)
    )
    assert set(sweeps["multiclock"]) == {0.5, 5.0}
    assert render_fig10(sweeps)


def test_overhead_smoke():
    rows = run_overhead(n_records=400, ops=800, policies=("static", "multiclock"))
    assert {row.policy for row in rows} == {"static", "multiclock"}
    assert render_overhead(rows)


def test_ablation_ratio_smoke():
    points = run_ablation_ratio(n_records=400, ops=600, fractions=(0.25, 0.75))
    assert len(points) == 2
    assert render_ablation_ratio(points)


def test_ablation_dirty_smoke():
    rows = run_ablation_dirty(n_records=400, ops=600)
    assert {row.phase for row in rows} == {"C", "W"}
    assert render_ablation_dirty(rows)


def test_table1_rows_complete():
    rows = run_table1()
    assert len(rows) >= 7
    assert render_table1()


def test_table2_counts_modules():
    rows = run_table2()
    assert len(rows) > 40  # many small modules, as DESIGN.md promises
    assert render_table2()


def test_fig5_is_deterministic():
    first = run_fig5(
        n_records=300, ops_per_phase=300,
        policies=("static", "multiclock"), phases=("A",),
    )
    second = run_fig5(
        n_records=300, ops_per_phase=300,
        policies=("static", "multiclock"), phases=("A",),
    )
    assert first["A"].values == second["A"].values
