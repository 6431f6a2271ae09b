"""``run_colo`` against the per-access colocation loop.

``run_colo`` drives each tenant timeslice as one ``Machine.touch_batch``
call over views of the tenant's 512-operation blocks, and sums the
driver's per-position charges into per-operation latencies.
``colo_reference.py`` drives the same machine one ``Machine.touch`` per
access.  On every colocation golden case, plus one whose timeslices
straddle block boundaries, the two must report the same rows, the same
tenant histograms in full (buckets, count, sum, min and max, which the
golden only pins as p50/p99 midpoints), the same counters and the same
virtual clock.
"""

from __future__ import annotations

import numpy as np
import pytest
from colo_reference import OOM_KILL, observed, run_colo_per_access
from test_colo_golden import CASES as GOLDEN_CASES

from repro.experiments.colo import TIMESLICE_OPS, build_colo_tenants, run_colo
from repro.machine import Machine
from repro.sim.config import SimulationConfig

#: 530 load operations: the turn over operations 512..543 covers the
#: load's second block and the traffic's first.
_STRADDLE = {
    "n_tenants": 2, "records_per_tenant": 530, "ops_per_tenant": 700,
    "dram_pages": 80, "pm_pages": 400, "limits": [None, 90], "seed": 11,
}

CASES = {
    **GOLDEN_CASES,
    "straddle/multiclock": {**_STRADDLE, "policy": "multiclock"},
    "oom-kill/autotiering-cpm": {**OOM_KILL, "policy": "autotiering-cpm"},
    # Half the swap: the limited tenant's own fault raises mid-turn.
    "oom-midturn/autotiering-cpm": {
        **OOM_KILL, "swap_pages": 8, "policy": "autotiering-cpm",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_colo_equals_per_access_loop(name):
    got = observed(run_colo(**CASES[name]))
    assert got == observed(run_colo_per_access(**CASES[name]))
    for row in got["rows"]:
        assert got["histograms"][row["name"]]["count"] == row["ops_completed"]


def test_straddle_case_cuts_turns_across_blocks():
    """Guard the guard: some turn of the straddle case ends past a block."""
    tenants = build_colo_tenants(
        _STRADDLE["n_tenants"], _STRADDLE["records_per_tenant"],
        _STRADDLE["ops_per_tenant"], seed=_STRADDLE["seed"],
    )
    machine = Machine(SimulationConfig(dram_pages=(64,), pm_pages=(4096,)), "static")
    for tenant in tenants:
        tenant.setup(machine)
        ops = np.cumsum([int(b.op_boundary.sum()) for b in tenant.blocks()])
        assert (ops[:-1] % TIMESLICE_OPS).any(), tenant.name


def test_midturn_case_is_killed_inside_a_turn():
    """Guard the guard: the ``oom-midturn`` kill lands inside a timeslice,
    after some of its operations completed."""
    rows = run_colo(**CASES["oom-midturn/autotiering-cpm"])["rows"]
    killed = [row for row in rows if row.killed]
    assert len(killed) == 1
    assert killed[0].ops_completed % TIMESLICE_OPS
