"""The chaos acceptance matrix: every policy survives the fault schedule.

The ISSUE's bar: a chaos run with a 20% transient migration-failure rate
plus one PM-node capacity-loss window must complete on every registered
policy with zero invariant violations and zero uncaught exceptions, and
a fixed seed must yield an identical report across two runs.
"""

import json

import pytest

from repro.faults import (
    CapacityLoss,
    CopyFailures,
    FaultPlan,
    run_chaos,
    write_report,
)
from repro.policies.base import _REGISTRY
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.sweep.runners import build_config


def chaos_config():
    return {"dram_pages": 256, "pm_pages": 2048, "interval": 0.002, "seed": 42}


def acceptance_plan(seed=42):
    return FaultPlan(seed=seed, events=(
        CopyFailures(start_s=0.0005, end_s=30.0, rate=0.2),
        CapacityLoss(start_s=0.002, end_s=0.008, node_id=1, frames=512),
    ))


def workloads(ops=6000, pages=800):
    return [{"kind": "zipf", "pages": pages, "ops": ops, "seed": 42}]


def test_config_spec_builds_the_acceptance_machine():
    """The spec is the machine the matrix was first pinned on: 256 DRAM
    and 2048 PM pages, kpromoted and hint scans every 2 ms, kswapd every
    1 ms, seed 42."""
    assert build_config(chaos_config()) == SimulationConfig(
        dram_pages=(256,),
        pm_pages=(2048,),
        daemons=DaemonConfig(
            kpromoted_interval_s=0.002,
            kswapd_interval_s=0.001,
            hint_scan_interval_s=0.002,
        ),
        seed=42,
    )


def test_plan_round_trips_through_its_dict():
    """Chaos cells carry the plan as ``to_dict()`` across the fork."""
    plan = acceptance_plan(seed=7)
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan


@pytest.mark.parametrize("policy", sorted(_REGISTRY))
def test_every_policy_survives_the_acceptance_schedule(policy):
    report = run_chaos([policy], workloads(), acceptance_plan(), chaos_config())
    (cell,) = report.cells
    assert cell.completed, cell.error
    assert cell.error == ""
    assert cell.violations == 0, cell.violation_details
    assert cell.counters["debug_vm.checks"] > 0
    assert cell.clean


def test_fault_schedule_actually_fires_on_multiclock():
    """Guard against a vacuous pass: the plan must really disturb the run."""
    report = run_chaos(["multiclock"], workloads(), acceptance_plan(), chaos_config())
    (cell,) = report.cells
    assert cell.counters["faults.windows_opened"] == 2
    assert cell.counters["faults.copy_failures_injected"] > 0
    assert cell.counters["faults.frames_offlined"] > 0
    assert cell.counters["migrate.retries"] > 0
    assert cell.counters["migrate.retry_succeeded"] > 0


def test_same_seed_yields_bit_identical_reports():
    def one_report():
        report = run_chaos(
            ["multiclock", "static"], workloads(ops=4000, pages=600),
            acceptance_plan(seed=7), chaos_config(),
        )
        return json.dumps(report.to_dict(), sort_keys=True)

    assert one_report() == one_report()


def test_report_file_is_deterministic(tmp_path):
    paths = []
    for i in range(2):
        report = run_chaos(
            ["static"], workloads(ops=2000, pages=400),
            acceptance_plan(), chaos_config(),
        )
        path = tmp_path / f"report{i}.json"
        write_report(report, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    data = json.loads(paths[0].read_text())
    assert data["all_clean"] is True
    assert data["plan"]["seed"] == 42
    assert data["cells"][0]["policy"] == "static"
