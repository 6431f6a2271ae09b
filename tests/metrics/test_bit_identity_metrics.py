"""Metrics must be free: armed runs match the recorded baselines.

The recorded ``tests/data/baseline_runresults.json`` predates both the
tracepoint layer and this metrics layer.  A metrics-off run is the
tracing-off run of ``tests/trace/test_bit_identity.py``; here the
cost-free sampler daemon, the gauge series, and all six histograms may
observe the run but never steer it.
"""

import pytest
from baseline_harness import RECORDED, baseline_config, baseline_workload, fingerprint

from repro.machine import Machine
from repro.run import run_workload


def arm_metrics(machine):
    # Dense sampling maximises the sampler's chances to interfere.
    machine.enable_metrics(sample_interval_s=0.0005)


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_metrics_armed_changes_nothing(policy):
    assert fingerprint(policy, arm=arm_metrics) == RECORDED[policy]


def test_armed_run_actually_measured_something():
    """Guard the guard: the identity test must not pass vacuously."""
    machine = Machine(baseline_config(), "multiclock")
    registry = machine.enable_metrics(sample_interval_s=0.0005)
    run_workload(baseline_workload(), machine.config, machine=machine)
    assert registry.samples > 0
    assert sum(h.count for h in registry.histograms.values()) > 0
    assert registry.gauges


def test_metrics_survive_fault_injection_identically():
    """Arming metrics must not shift the fault RNG stream either: the
    ``vmstat_sampler`` daemon is ``cost_free``, which jitter and stall
    faults pass over, so a chaos run fingerprints the same with and
    without metrics."""
    from repro.faults import CopyFailures, DaemonJitter, FaultPlan

    plan = FaultPlan(
        seed=7,
        events=(
            CopyFailures(start_s=0.001, end_s=10.0, rate=0.3),
            DaemonJitter(start_s=0.001, end_s=10.0, max_extra_s=0.005),
        ),
    )

    def faults(machine):
        machine.install_faults(plan)

    def metrics_and_faults(machine):
        arm_metrics(machine)
        faults(machine)

    assert fingerprint("multiclock", arm=metrics_and_faults) == fingerprint(
        "multiclock", arm=faults
    )
