"""The batched and per-access drivers must be bit-identical.

``Machine.touch_batch`` inlines the hot path and accumulates virtual
time and counters in locals; these tests pin down that none of that
changes observable behaviour: for a fixed-seed workload, both drivers
end with the same counter snapshot, the same virtual clock (all three
buckets), and daemons fired at the same virtual times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.sim.events import Daemon
from repro.workloads.base import PageAccess, Workload
from repro.workloads.synthetic import ShiftingHotSetWorkload, ZipfWorkload

POLICIES = ["multiclock", "static", "nimble", "memory-mode", "autonuma"]


class MixedSupervisionWorkload(Workload):
    """Two processes, one with a supervised and an unsupervised region and
    one with no supervised region, their accesses interleaved: the driver
    must look regions up for the first and may skip it for the second."""

    name = "mixed-supervision"

    def __init__(self, ops: int, seed: int) -> None:
        self.ops = ops
        self.rng = np.random.default_rng(seed)

    def setup(self, machine: Machine) -> None:
        self.mixed = machine.create_process("mixed")
        self.mixed.mmap_anon(0, 300, supervised=True)
        self.mixed.mmap_anon(1000, 300)
        self.plain = machine.create_process("plain")
        self.plain.mmap_anon(0, 300)

    def accesses(self):
        picks = self.rng.integers(0, 3, size=self.ops).tolist()
        pages = self.rng.zipf(1.3, size=self.ops) % 300
        writes = self.rng.random(self.ops) < 0.3
        for pick, vpage, write in zip(picks, pages.tolist(), writes.tolist()):
            process = self.plain if pick == 0 else self.mixed
            vpage += 1000 if pick == 2 else 0
            yield PageAccess(process, vpage, is_write=write, op_boundary=True)


WORKLOADS = {
    "zipf": lambda: ZipfWorkload(600, 6000, seed=11, write_ratio=0.3),
    "shifting": lambda: ShiftingHotSetWorkload(
        600, 6000, seed=11, write_ratio=0.3, phase_ops=1500
    ),
    "mixed-supervision": lambda: MixedSupervisionWorkload(6000, seed=11),
}


def _config() -> SimulationConfig:
    return SimulationConfig(
        dram_pages=(128,),
        pm_pages=(1024,),
        daemons=DaemonConfig(
            kpromoted_interval_s=0.001,
            kswapd_interval_s=0.001,
            hint_scan_interval_s=0.001,
        ),
        seed=7,
    )


def _drive(policy: str, workload_key: str, *, batched: bool):
    machine = Machine(_config(), policy)
    workload = WORKLOADS[workload_key]()
    workload.setup(machine)
    if batched:
        machine.touch_batch(workload.accesses())
    else:
        for access in workload.accesses():
            machine.touch(
                access.process, access.vpage, is_write=access.is_write, lines=access.lines
            )
    clock = machine.clock
    return machine, (
        machine.stats.snapshot(),
        clock.now_ns,
        clock.app_ns,
        clock.system_ns,
    )


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", POLICIES)
def test_batched_driver_is_bit_identical(policy: str, workload_key: str):
    __, per_access = _drive(policy, workload_key, batched=False)
    __, batched = _drive(policy, workload_key, batched=True)
    assert batched[0] == per_access[0], "counter snapshots diverged"
    assert batched[1:] == per_access[1:], "virtual clocks diverged"


@pytest.mark.parametrize("policy", ["multiclock", "static"])
def test_daemons_fire_at_same_virtual_times(policy: str):
    """The scheduler fast-path must not shift or drop any wakeup."""

    def run(batched: bool) -> list[int]:
        machine = Machine(_config(), policy)
        fire_times: list[int] = []
        machine.scheduler.register(
            Daemon("probe", 0.0005, lambda now: fire_times.append(now) or 0)
        )
        workload = WORKLOADS["zipf"]()
        workload.setup(machine)
        if batched:
            machine.touch_batch(workload.accesses())
        else:
            for access in workload.accesses():
                machine.touch(
                    access.process,
                    access.vpage,
                    is_write=access.is_write,
                    lines=access.lines,
                )
        return fire_times

    per_access = run(batched=False)
    batched = run(batched=True)
    assert per_access, "probe daemon never fired — workload too small"
    assert batched == per_access


def test_touch_batch_returns_access_and_operation_counts():
    machine = Machine(_config(), "static")
    workload = WORKLOADS["zipf"]()
    workload.setup(machine)
    accesses, operations = machine.touch_batch(workload.accesses())
    assert accesses == 6000
    assert operations == 6000  # synthetic streams mark every access
