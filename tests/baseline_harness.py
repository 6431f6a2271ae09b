"""The recorded baselines: one seed-7 zipf run per policy.

``tests/data/baseline_runresults.json`` holds each policy's fingerprint
of the run below (operations, accesses, the three clocks, the fallback
flag and every counter), recorded before the tracepoint layer existed.
Whatever must observe without steering is held to it: tracing, metrics,
memcg, a fault plan that fires nothing, and both access drivers.

The tests import this module by name (``tests/`` is on the path via its
``conftest.py``); ``scripts/ci.sh`` puts ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable

from repro.machine import Machine
from repro.run import run_numeric_stream, run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

BASELINE = Path(__file__).parent / "data" / "baseline_runresults.json"
RECORDED = json.loads(BASELINE.read_text())


def baseline_config() -> SimulationConfig:
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


def baseline_workload() -> ZipfWorkload:
    return ZipfWorkload(2000, 20_000, seed=7, write_ratio=0.2)


@functools.cache
def baseline_stream() -> list:
    """The workload's numeric batches, built once and replayed read-only."""
    return list(baseline_workload().numeric_batches())


def fingerprint(
    policy: str,
    *,
    arm: Callable[[Machine], object] | None = None,
    numeric: bool = False,
) -> dict:
    """Run ``policy``'s baseline and return what the recording holds.

    ``arm(machine)`` runs on the fresh machine before the workload is set
    up (``Machine.enable_tracing``, a fault plan, ...).  ``numeric``
    replays :func:`baseline_stream` through ``touch_batch_array``
    instead of driving the workload's blocks.
    """
    config = baseline_config()
    machine = Machine(config, policy)
    if arm is not None:
        arm(machine)
    workload = baseline_workload()
    if numeric:
        result = run_numeric_stream(
            workload, config, baseline_stream(), machine=machine
        )
    else:
        result = run_workload(workload, config, machine=machine)
    return {
        "operations": result.operations,
        "accesses": result.accesses,
        "elapsed_ns": result.elapsed_ns,
        "app_ns": result.app_ns,
        "system_ns": result.system_ns,
        "ops_fallback": result.ops_fallback,
        "counters": dict(sorted(result.counters.items())),
    }
