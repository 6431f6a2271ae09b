"""Colocation run results pinned bit-for-bit.

``tests/data/colo_runresults.json`` holds, for a few small
:func:`~repro.experiments.colo.run_colo` runs, every tenant row, the OOM
kill count, the virtual clock (``now_ns``/``app_ns``/``system_ns``) and
the machine's ``stats.snapshot()``:

* three tenants with and without a memcg limit on one of them, under
  MULTI-CLOCK and static tiering (targeted reclaim against none);
* the OOM-kill configuration of ``scripts/ci.sh``'s colocation smoke
  (limits ``none,80,none`` and 16 swap pages), where the limited tenant
  is killed and the others finish;
* one autotiering-cpm run, whose hint faults take the poisoned-PTE
  branch of the per-access path.

Each tenant timeslice is one ``Machine.touch_batch`` call, whose events
step through ``Machine.touch``, so any change to the access driver, the
per-operation latency sums, the memcg charge and targeted reclaim, or
the OOM killer shows up here.  ``test_colo_reference.py`` holds the same
cases equal to a per-access loop, histograms in full.

Re-record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/experiments/test_colo_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.colo import run_colo

GOLDEN = Path(__file__).parent.parent / "data" / "colo_runresults.json"

_SMALL = {"n_tenants": 3, "records_per_tenant": 1500, "ops_per_tenant": 1200, "seed": 7}
_LIMIT = [None, None, 120]

#: name -> run_colo keyword arguments
CASES = {
    "limited/multiclock": {**_SMALL, "policy": "multiclock", "limits": _LIMIT},
    "limited/static": {**_SMALL, "policy": "static", "limits": _LIMIT},
    "unlimited/multiclock": {**_SMALL, "policy": "multiclock"},
    "unlimited/static": {**_SMALL, "policy": "static"},
    "oom-kill/multiclock": {
        "n_tenants": 3, "records_per_tenant": 600, "ops_per_tenant": 1500,
        "dram_pages": 96, "pm_pages": 300, "swap_pages": 16,
        "limits": [None, 80, None], "seed": 7, "policy": "multiclock",
    },
    "limited/autotiering-cpm": {
        **_SMALL, "policy": "autotiering-cpm", "limits": _LIMIT,
    },
}


def run_case(name: str) -> dict:
    """One colocation run, reduced to JSON-comparable data."""
    result = run_colo(**CASES[name])
    clock = result["machine"].clock
    out = {
        "rows": [dataclasses.asdict(row) for row in result["rows"]],
        "oom_kills": result["oom_kills"],
        "now_ns": clock.now_ns,
        "app_ns": clock.app_ns,
        "system_ns": clock.system_ns,
        "stats": result["machine"].stats.snapshot(),
    }
    # Round-trip so int dict keys (rss_by_node) compare as the file has them.
    return json.loads(json.dumps(out, sort_keys=True))


def record_all() -> dict[str, dict]:
    return {name: run_case(name) for name in CASES}


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert set(RECORDED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_colo_run_matches_golden(name):
    result = run_case(name)
    stats = result["stats"]
    # Guard the guards: each case really reaches the path it is here for.
    if name.startswith("limited/"):
        assert stats.get("memcg.limit_reclaims", 0) > 0
    if name.startswith("unlimited/"):
        assert stats.get("memcg.limit_reclaims", 0) == 0
    if name.startswith("oom-kill/"):
        assert result["oom_kills"] == 1
        assert [row["killed"] for row in result["rows"]] == [False, True, False]
    if name.endswith("/autotiering-cpm"):
        assert stats.get("faults.hint", 0) > 0
    assert result == RECORDED[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
