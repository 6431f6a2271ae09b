"""YCSB run results pinned bit-for-bit.

``tests/data/ycsb_runresults.json`` holds the ``RunResult.to_dict()`` of
every phase of a few YCSB sequences on small stores:

* Load, A, B, C, F, W, D on the slab (memcached) store under three
  policies, with phases long enough to cross the emitter's batch size;
* Load then E on the sorted (scan-capable) store;
* a D run whose insert headroom runs out, so inserts degrade to updates;
* runs with the hash-bucket cache hit rate at 0.0 and at 1.0.

Any change to how the YCSB phases pick keys, lay records out, draw
hash-probe absorption or how the drivers consume the stream shows up
here.

Re-record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/workloads/test_ycsb_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession

GOLDEN = Path(__file__).parent.parent / "data" / "ycsb_runresults.json"
POLICIES = ("static", "multiclock", "autotiering-cpm")

#: name -> (policy, session kwargs, phases, ops per phase)
CASES = {
    **{
        f"sequence/{policy}": (
            policy, {"n_records": 1200}, EXECUTION_SEQUENCE, 2100
        )
        for policy in POLICIES
    },
    "sorted-e/multiclock": (
        "multiclock", {"n_records": 500, "backend": "sorted"}, ("E", "C"), 700
    ),
    "headroom/multiclock": (
        "multiclock", {"n_records": 300, "insert_headroom": 0.02}, ("D",), 2500
    ),
    "hit0/static": (
        "static", {"n_records": 300, "hash_cache_hit_rate": 0.0}, ("A", "D"), 800
    ),
    "hit1/multiclock": (
        "multiclock", {"n_records": 300, "hash_cache_hit_rate": 1.0}, ("A", "D"), 800
    ),
}


def run_case(name: str):
    """Load then run the case's phases on one machine; returns the
    session and every phase's result."""
    policy, kwargs, phases, ops = CASES[name]
    session = YCSBSession(value_size=1024, seed=11, **kwargs)
    footprint = session.footprint_pages()
    config = scaled_config(
        dram_pages=max(8, int(footprint * 0.4)), pm_pages=footprint * 4,
        interval_s=0.1, scan_budget_pages=16,
    )
    machine = Machine(config, policy)
    results = {"load": run_workload(session.load_phase(), config, machine=machine).to_dict()}
    for phase in phases:
        results[phase] = run_workload(
            session.phase(phase, ops=ops), config, machine=machine
        ).to_dict()
    return session, results


def record_all() -> dict[str, dict]:
    return {name: run_case(name)[1] for name in CASES}


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert set(RECORDED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ycsb_run_matches_golden(name):
    session, results = run_case(name)
    if name.startswith("headroom/"):
        # The headroom really runs out, so later inserts become updates.
        assert session.next_key == session.max_records
    assert results == RECORDED[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
