"""Run results of the block producers beside GAPBS and YCSB, pinned
bit-for-bit.

``tests/data/adapter_runresults.json`` holds ``RunResult.to_dict()``
for trace replay, the motivation workload, two multi-tenant mixes (one
of KV tenants and a Zipf tenant whose turns cut the children's blocks),
a diurnal KV tenant and the two-process supervised/unsupervised
workload, plus a ``shifting-hotset`` numeric stream through
``run_numeric_stream`` under four policies (the recorded baselines
cover only Zipf).  Any change to how those streams are laid out as
blocks, or to what the driver does with them, shows up here.

Re-record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/perf/test_adapter_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from mixed_supervision import MixedSupervisionWorkload

from repro.run import run_numeric_stream, run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.motivation import MotivationWorkload
from repro.workloads.multitenant import KVTenantWorkload, MultiTenantWorkload
from repro.workloads.synthetic import (
    ShiftingHotSetWorkload,
    UniformWorkload,
    ZipfWorkload,
)
from repro.workloads.trace import TRACE_VERSION, TraceReplayWorkload

GOLDEN = Path(__file__).parent.parent / "data" / "adapter_runresults.json"
NUMERIC_POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm")

CONFIG = SimulationConfig(
    dram_pages=(128,),
    pm_pages=(1024,),
    daemons=DaemonConfig(
        kpromoted_interval_s=0.001,
        kswapd_interval_s=0.001,
        hint_scan_interval_s=0.001,
    ),
    seed=7,
)


def _write_trace(path: Path) -> None:
    """Two processes, one with a supervised region, every field varied."""
    rng = np.random.default_rng(5)
    header = {
        "version": TRACE_VERSION,
        "workload": "golden-trace",
        "processes": [
            {"name": "a", "home_socket": 0,
             "regions": [[0, 200, True, False], [500, 100, False, True]]},
            {"name": "b", "home_socket": 0, "regions": [[0, 150, True, False]]},
        ],
    }
    lines = [json.dumps(header)]
    for __ in range(3000):
        proc = int(rng.integers(0, 2))
        if proc == 0:
            vpage = int(rng.zipf(1.2) % 200)
            if rng.random() < 0.3:
                vpage = 500 + vpage % 100
        else:
            vpage = int(rng.zipf(1.4) % 150)
        rw = "w" if rng.random() < 0.25 else "r"
        width = int(rng.integers(1, 9))
        boundary = "o" if rng.random() < 0.5 else "-"
        lines.append(f"{proc} {vpage} {rw} {width} {boundary}")
    path.write_text("\n".join(lines) + "\n")


def _trace(policy: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.trace"
        _write_trace(path)
        return run_workload(TraceReplayWorkload(path), CONFIG, policy).to_dict()


def _motivation(policy: str) -> dict:
    workload = MotivationWorkload(
        "rubis", pages=300, segments=4, ops_per_segment=600, seed=3
    )
    return run_workload(workload, CONFIG, policy).to_dict()


def _multitenant(policy: str) -> dict:
    workload = MultiTenantWorkload(
        [
            ZipfWorkload(250, 1500, seed=4, write_ratio=0.2),
            UniformWorkload(200, 1500, seed=5, write_ratio=0.1, lines=2),
        ],
        batch=16,
    )
    return run_workload(workload, CONFIG, policy).to_dict()


def _kv_tenant(name: str, records: int, seed: int) -> KVTenantWorkload:
    return KVTenantWorkload(
        name, records, 3 * records, alpha=1.1, read_ratio=0.8,
        phases=(1.0, 0.3, 1.0), seed=seed,
    )


def _kv(policy: str) -> dict:
    return run_workload(_kv_tenant("kv", 600, 5), CONFIG, policy).to_dict()


def _kv_multitenant(policy: str) -> dict:
    workload = MultiTenantWorkload(
        [
            _kv_tenant("kv0", 300, 6),
            ZipfWorkload(200, 1200, seed=8, write_ratio=0.2),
            _kv_tenant("kv1", 300, 7),
        ],
        batch=7,
    )
    return run_workload(workload, CONFIG, policy).to_dict()


def _mixed(policy: str) -> dict:
    return run_workload(MixedSupervisionWorkload(3000, seed=11), CONFIG, policy).to_dict()


def _shifting(policy: str) -> dict:
    workload = ShiftingHotSetWorkload(
        600, 6000, seed=11, write_ratio=0.3, phase_ops=1500
    )
    stream = list(workload.numeric_batches())
    return run_numeric_stream(workload, CONFIG, stream, policy).to_dict()


#: name -> zero-argument runner
CASES = {
    "trace/multiclock": lambda: _trace("multiclock"),
    "motivation/multiclock": lambda: _motivation("multiclock"),
    "multitenant/autotiering-cpm": lambda: _multitenant("autotiering-cpm"),
    "kv-tenant/multiclock": lambda: _kv("multiclock"),
    "kv-multitenant/multiclock": lambda: _kv_multitenant("multiclock"),
    "kv-multitenant/autotiering-cpm": lambda: _kv_multitenant("autotiering-cpm"),
    "mixed-supervision/multiclock": lambda: _mixed("multiclock"),
    **{
        f"shifting-hotset/{policy}": (lambda p=policy: _shifting(p))
        for policy in NUMERIC_POLICIES
    },
}


def record_all() -> dict[str, dict]:
    return {name: CASES[name]() for name in sorted(CASES)}


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert set(RECORDED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_adapter_run_matches_golden(name):
    result = CASES[name]()
    counters = result["counters"]
    # Guard the guards: each case reaches the path it is here for.
    if name.endswith("/autotiering-cpm"):
        assert counters.get("faults.hint", 0) > 0
    assert result == RECORDED[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
