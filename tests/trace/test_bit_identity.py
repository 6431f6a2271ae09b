"""Tracing-off runs must be bit-identical to the recorded baseline.

``tests/data/baseline_runresults.json`` was generated on the tree as it
stood *before* the tracepoint layer existed (the three MULTI-CLOCK
fingerprints were added later, while kpromoted and kswapd still kept
page-at-a-time twins of their scans).  Every policy fingerprint —
counters, clocks, operation counts — must still come out byte-for-byte
the same with tracing compiled out (no tracer installed), which is the
"tracepoints are nops when off" guarantee measured at full-run scale.
"""

import pytest
from baseline_harness import RECORDED, fingerprint

from repro.machine import Machine


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_tracing_off_matches_the_recorded_baseline(policy):
    assert fingerprint(policy) == RECORDED[policy]


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_tracing_on_changes_nothing_either(policy):
    """Armed tracing observes; it must never steer."""
    assert fingerprint(policy, arm=Machine.enable_tracing) == RECORDED[policy]


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
