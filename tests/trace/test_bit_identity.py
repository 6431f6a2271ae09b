"""Tracing-off runs must be bit-identical to the recorded baseline.

``tests/data/baseline_runresults.json`` was generated on the tree as it
stood *before* the tracepoint layer existed (the three MULTI-CLOCK
fingerprints were added later, while kpromoted and kswapd still kept
page-at-a-time twins of their scans).  Every policy fingerprint —
counters, clocks, operation counts — must still come out byte-for-byte
the same with tracing compiled out (no tracer installed), which is the
"tracepoints are nops when off" guarantee measured at full-run scale.
"""

import json
from pathlib import Path

import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

BASELINE = Path(__file__).parent.parent / "data" / "baseline_runresults.json"


def baseline_config():
    return SimulationConfig(
        dram_pages=(512,),
        pm_pages=(4096,),
        swap_pages=1 << 20,
        daemons=DaemonConfig(
            kpromoted_interval_s=0.002,
            kswapd_interval_s=0.001,
            hint_scan_interval_s=0.002,
        ),
        seed=7,
    )


def fingerprint(policy, *, traced=False):
    machine = Machine(baseline_config(), policy)
    if traced:
        machine.enable_tracing()
    workload = ZipfWorkload(2000, 20_000, seed=7, write_ratio=0.2)
    result = run_workload(workload, machine.config, machine=machine)
    return {
        "operations": result.operations,
        "accesses": result.accesses,
        "elapsed_ns": result.elapsed_ns,
        "app_ns": result.app_ns,
        "system_ns": result.system_ns,
        "ops_fallback": result.ops_fallback,
        "counters": dict(sorted(result.counters.items())),
    }


RECORDED = json.loads(BASELINE.read_text())


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_tracing_off_matches_the_recorded_baseline(policy):
    assert fingerprint(policy) == RECORDED[policy]


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_tracing_on_changes_nothing_either(policy):
    """Armed tracing observes; it must never steer."""
    assert fingerprint(policy, traced=True) == RECORDED[policy]


def colo_fingerprint(machine):
    clock = machine.clock
    return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns


def test_tracing_on_changes_nothing_under_a_memcg_limit(
    limited_colo, traced_limited_colo
):
    """The same property where kswapd's rebalance meets over-limit pages
    and MULTI-CLOCK's edge-10 joins in one scan."""
    traced = traced_limited_colo
    plain = limited_colo()
    assert colo_fingerprint(traced) == colo_fingerprint(plain)
    sources = {
        (event.name, event.fields.get("scanner", event.fields.get("source")))
        for buffer in traced.system.trace.buffers.values()
        for event in buffer
    }
    # Guard the guard: both event kinds the rebalance emits must occur.
    assert ("mm_lru_deactivate", "memcg") in sources
    assert ("mm_promote_list_add", "hook") in sources
