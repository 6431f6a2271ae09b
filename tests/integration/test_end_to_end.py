"""End-to-end integration tests across subsystem boundaries."""

import pytest

from repro.analysis.compare import normalize_throughput
from repro.experiments.common import run_ycsb_sequence, scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.gapbs import Graph, KERNELS
from repro.workloads.multitenant import MultiTenantWorkload
from repro.workloads.synthetic import ShiftingHotSetWorkload, ZipfWorkload
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession


def test_full_ycsb_sequence_on_one_machine():
    """The prescribed sequence runs warm end to end; later phases find
    resident data (no reload) and every phase completes its ops."""
    config = scaled_config(dram_pages=256, pm_pages=2048)
    results = run_ycsb_sequence(
        "multiclock", config, n_records=1000, ops_per_phase=1500
    )
    assert list(results) == ["load", *EXECUTION_SEQUENCE]
    for name in EXECUTION_SEQUENCE:
        assert results[name].operations == 1500, name
    assert results["load"].operations == 1000  # one insert per record
    # Execution phases never re-run the load: total minor faults across
    # the paper phases stay well below one fault per op.
    total_minor = sum(
        results[name].counters.get("faults.minor", 0) for name in EXECUTION_SEQUENCE
    )
    total_ops = 1500 * len(EXECUTION_SEQUENCE)
    assert total_minor < total_ops * 0.25


def test_gapbs_trials_warm_up_across_repetitions():
    """With a resident graph, MULTI-CLOCK's later trials run faster than
    the first (hot pages promoted during trial 1 serve trials 2-3)."""
    graph = Graph.uniform(1500, 8000, seed=5)
    kernel = KERNELS["pr"](graph, trials=3, seed=2, iterations=2)
    config = scaled_config(
        dram_pages=max(24, kernel.footprint_pages() // 2),
        pm_pages=kernel.footprint_pages() * 4,
        interval_s=0.05,
        scan_budget_pages=64,
    )
    machine = Machine(config, "multiclock")
    run_workload(kernel.load_workload(), config, machine=machine)
    result = run_workload(kernel, config, machine=machine)
    assert result.operations == 3
    assert result.promotions > 0


def test_policies_see_identical_access_counts():
    """Every policy sees the identical access stream for one workload."""
    workload_args = dict(pages=400, ops=3000, seed=8)
    config = SimulationConfig(dram_pages=(128,), pm_pages=(1024,))
    counts = set()
    for policy in ("static", "multiclock", "nimble", "memory-mode"):
        result = run_workload(ZipfWorkload(**workload_args), config, policy=policy)
        counts.add((result.accesses, result.operations))
    assert len(counts) == 1


def test_multitenant_transparency():
    """Two co-located tenants both benefit from MULTI-CLOCK without any
    per-application configuration — the paper's transparency claim."""
    config = scaled_config(dram_pages=384, pm_pages=3072, scan_budget_pages=256)

    def tenants():
        return [
            ShiftingHotSetWorkload(pages=900, ops=40_000, phase_ops=20_000,
                                   hot_fraction=0.12, seed=31),
            ShiftingHotSetWorkload(pages=900, ops=40_000, phase_ops=20_000,
                                   hot_fraction=0.12, seed=32),
        ]

    static = run_workload(MultiTenantWorkload(tenants()), config, policy="static")
    multiclock = run_workload(MultiTenantWorkload(tenants()), config, policy="multiclock")
    comparison = normalize_throughput({"static": static, "multiclock": multiclock})
    assert comparison.values["multiclock"] > 1.0


def test_stats_series_and_counters_agree_after_long_run():
    config = SimulationConfig(
        dram_pages=(128,),
        pm_pages=(1024,),
        daemons=DaemonConfig(kpromoted_interval_s=0.002, kswapd_interval_s=0.001),
        stats_window_s=0.01,
    )
    machine = Machine(config, "multiclock")
    workload = ShiftingHotSetWorkload(
        pages=800, ops=60_000, phase_ops=20_000, hot_fraction=0.1, seed=4
    )
    run_workload(workload, config, machine=machine)
    stats = machine.stats
    promoted_series = sum(p.value for p in stats.series["promotions_window"].totals())
    assert promoted_series == stats.get("migrate.promotions")
    demoted_series = sum(p.value for p in stats.series["demotions_window"].totals())
    assert demoted_series == stats.get("migrate.demotions")
    reaccessed = stats.get("promoted.reaccessed")
    assert reaccessed <= stats.get("migrate.promotions")


def test_virtual_time_is_policy_dependent_but_access_order_is_not():
    """Policies change *when* things cost, not *what* the workload does."""
    config = SimulationConfig(dram_pages=(64,), pm_pages=(512,))
    times = {}
    for policy in ("static", "multiclock"):
        result = run_workload(
            ZipfWorkload(pages=300, ops=2000, seed=3), config, policy=policy
        )
        times[policy] = result.elapsed_ns
        assert result.accesses == 2000
    assert times["static"] != times["multiclock"]
