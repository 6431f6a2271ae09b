"""A fault plan that fires nothing changes nothing.

A plan acts only through the windows it opens.  Each recorded baseline
runs under three plans whose windows change nothing: a 1.0x PM slowdown
and a stall matching no daemon, both opening and closing mid-run, and
certain copy failures in a window that opens after the run ends.  Apart
from the injector's own counters, every run must equal the recording:
window edges charge no wakeup, and arming the copy-fault hook adds no
retry.
"""

import pytest
from baseline_harness import RECORDED, fingerprint

from repro.faults import CopyFailures, DaemonStall, FaultPlan, PmSlowdown

# Every baseline run lasts 21-43 ms of virtual time.
SILENT = {
    "pm-slowdown-1x": (PmSlowdown(start_s=0.005, end_s=0.015, multiplier=1.0), 1),
    "stall-matching-nothing": (
        DaemonStall(start_s=0.005, end_s=0.015, name_prefix="no-such-daemon"), 1,
    ),
    "copy-failures-after-the-run": (CopyFailures(start_s=1.0, end_s=2.0, rate=1.0), 0),
}


@pytest.mark.parametrize("plan", sorted(SILENT))
@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_a_silent_plan_matches_the_recorded_baseline(policy, plan):
    event, opened = SILENT[plan]
    injectors = []
    got = fingerprint(
        policy,
        arm=lambda machine: injectors.append(
            machine.install_faults(FaultPlan(seed=7, events=(event,)))
        ),
    )
    injected = {f"faults.{key}": got["counters"].pop(f"faults.{key}")
                for key in injectors[0].summary()}
    # Guard the guard: the mid-run windows did open.
    assert injected["faults.windows_opened"] == opened
    assert got == RECORDED[policy]
