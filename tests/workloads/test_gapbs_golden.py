"""GAPBS run results pinned bit-for-bit.

``tests/data/gapbs_runresults.json`` holds the ``RunResult.to_dict()``
of the load run and the trial run of every GAPBS kernel under three
policies on a small R-MAT graph, plus one multiclock run squeezed into
less memory than its footprint so pages are swapped out (and so unmapped)
mid-trial.  Any change to how the kernels emit page touches, how CPU-cache
absorption draws, or how the drivers consume the stream shows up here.

Re-record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/workloads/test_gapbs_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads.gapbs import KERNELS, Graph

GOLDEN = Path(__file__).parent.parent / "data" / "gapbs_runresults.json"
POLICIES = ("static", "multiclock", "autotiering-cpm")
SWAP_CASE = "pr/multiclock/swap"


def _graph() -> Graph:
    return Graph.rmat(scale=10, edge_factor=6, seed=5)


def run_case(graph: Graph, kernel_name: str, policy: str, *, swap: bool = False):
    """Load then run two trials; returns the machine and both results."""
    kernel = KERNELS[kernel_name](graph, trials=2, seed=3)
    footprint = kernel.footprint_pages()
    if swap:
        dram, pm = max(4, int(footprint * 0.2)), int(footprint * 0.7)
    else:
        dram, pm = max(4, int(footprint * 0.4)), footprint * 4
    config = scaled_config(
        dram_pages=dram, pm_pages=pm, interval_s=0.1, scan_budget_pages=16
    )
    machine = Machine(config, policy)
    load = run_workload(kernel.load_workload(), config, machine=machine)
    trials = run_workload(kernel, config, machine=machine)
    return machine, {"load": load.to_dict(), "trials": trials.to_dict()}


def record_all() -> dict[str, dict]:
    graph = _graph()
    out = {
        f"{kernel}/{policy}": run_case(graph, kernel, policy)[1]
        for kernel in sorted(KERNELS)
        for policy in POLICIES
    }
    out[SWAP_CASE] = run_case(graph, "pr", "multiclock", swap=True)[1]
    return out


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def graph():
    return _graph()


def test_golden_covers_every_kernel_and_policy():
    expected = {f"{k}/{p}" for k in KERNELS for p in POLICIES} | {SWAP_CASE}
    assert set(RECORDED) == expected


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("policy", POLICIES)
def test_gapbs_run_matches_golden(graph, kernel, policy):
    __, results = run_case(graph, kernel, policy)
    assert results == RECORDED[f"{kernel}/{policy}"]


def test_swap_pressured_run_matches_golden(graph):
    machine, results = run_case(graph, "pr", "multiclock", swap=True)
    # Pages really leave the page table mid-trial, so CPU-cache absorption
    # sees mappings vanish under it.
    assert machine.system.backing.swap_outs > 0
    assert results == RECORDED[SWAP_CASE]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
