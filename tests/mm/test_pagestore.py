"""PageStore pfn allocation and the vectorized driver's bit-identity.

Two guarantees of the struct-of-arrays refactor are pinned here.  First,
pfns are allocated densely *per machine*: the old module-level counter
made a machine's pfn sequence depend on how many machines the process
had built earlier, which broke pfn-indexed columns and reproducibility.
Second, the vectorized column-sweep driver (``touch_batch_array``) is
bit-identical to the recorded per-access baseline for every policy, with
metrics off and armed — the gate that lets the hot loops be rewritten as
numpy sweeps at all.
"""

import pytest
from baseline_harness import RECORDED
from baseline_harness import fingerprint as baseline_fingerprint

from repro.machine import Machine
from repro.mm.page import Page
from repro.mm.pagestore import PageStore, default_store
from repro.sim.config import DaemonConfig, SimulationConfig


def small_config():
    return SimulationConfig(
        dram_pages=(64,),
        pm_pages=(256,),
        daemons=DaemonConfig(
            kpromoted_interval_s=2e-4, kswapd_interval_s=1e-4
        ),
        seed=3,
    )


# -- per-machine pfn allocation ---------------------------------------------


def test_each_machine_gets_its_own_dense_pfn_sequence():
    """Two machines in one process must not share a pfn counter: the
    second machine's pages start at pfn 0 in its own store."""
    first = Machine(small_config(), "static")
    p1 = first.create_process()
    p1.mmap_anon(0, 32)
    for vpage in range(32):
        first.touch(p1, vpage)

    second = Machine(small_config(), "static")
    p2 = second.create_process()
    p2.mmap_anon(0, 8)
    for vpage in range(8):
        second.touch(p2, vpage)

    store = second.system.pagestore
    assert store is not first.system.pagestore
    assert [page.pfn for page in store.pages] == list(range(len(store)))
    assert len(store) == 8
    # And the first machine's store was not perturbed by the second.
    assert [page.pfn for page in first.system.pagestore.pages] == \
        list(range(32))


def test_machine_runs_fingerprint_identically_regardless_of_prior_machines():
    """Building machines earlier in the process must not shift a later
    machine's behaviour (the regression the module-level counter caused)."""

    def fingerprint():
        machine = Machine(small_config(), "multiclock")
        process = machine.create_process()
        process.mmap_anon(0, 48)
        for vpage in [v % 48 for v in range(0, 400, 7)]:
            machine.touch(process, vpage, is_write=vpage % 3 == 0)
        return (
            dict(sorted(machine.stats.snapshot().items())),
            machine.clock.now_ns,
            [page.pfn for page in machine.system.pagestore.pages],
        )

    first = fingerprint()
    # Interleave unrelated allocation: another machine and bare pages on
    # the default store.
    other = Machine(small_config(), "nimble")
    op = other.create_process()
    op.mmap_anon(0, 16)
    for vpage in range(16):
        other.touch(op, vpage)
    Page(0)  # default-store page
    assert fingerprint() == first


def test_bare_pages_live_on_the_default_store():
    page = Page(0)
    assert page._store is default_store()
    assert page is default_store().page_at(page.pfn)


def test_store_grows_past_initial_capacity():
    store = PageStore(capacity=16)
    pages = [Page(0, store=store) for _ in range(40)]
    assert [p.pfn for p in pages] == list(range(40))
    assert store.page_at(39) is pages[39]
    assert int(store.node[39]) == 0 and int(store.last_promoted[39]) == -1


# -- vectorized driver bit-identity -----------------------------------------


def arm_metrics(machine):
    machine.enable_metrics(sample_interval_s=0.0005)


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_array_driver_matches_the_recorded_baseline(policy):
    assert baseline_fingerprint(policy, numeric=True) == RECORDED[policy]


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_array_driver_with_metrics_armed_matches_too(policy):
    assert baseline_fingerprint(policy, arm=arm_metrics, numeric=True) == RECORDED[policy]
