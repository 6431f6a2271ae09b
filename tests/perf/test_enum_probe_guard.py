"""Guards on what the per-page and per-event paths may compute.

**No enum probes.** ANDing a numpy ``int64`` scalar with a ``PageFlags``
member makes numpy look up ``__array_ufunc__`` on the enum class.  On
Python 3.11 every such miss runs ``EnumType.__getattr__``, which made one
flag test cost tens of times the mask itself.  The per-page paths read
the flag word with ``.item()`` and mask it with plain ints (DESIGN.md,
"Page store").

**Cached state is derived only where it changes.**  Each node keeps its
free count and watermark level as plain values (DESIGN.md, "Scalar-path
rule").  So ``Watermarks.pressure`` runs once per node at start-up, once
per allocation, twice per migration and once per eviction, never in the
allocator's walk.  The debug checker (``check_invariants``) derives it
again to compare it with the cache; its calls are not counted.

**A fault maps at the slot its access found.**  ``MemorySystem.touch``
bisects the region starts once for both the slot and the region, and a
page fault installs its translation there, and the hint scanner poisons
at the slots it resolved with its snapshot, so ``PageTable._slot`` (the
scalar bisect) runs only where a vpage arrives without a slot: unmapping.

Both guards count calls over the same small runs, which fault,
hint-fault, promote, demand-demote and scan.
"""

import enum
import sys

import pytest

from repro.mm.page_table import PageTable
from repro.mm.watermarks import Watermarks
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ShiftingHotSetWorkload

EnumType = getattr(enum, "EnumType", None)
ENUM_COUNTABLE = EnumType is not None and "__getattr__" in vars(EnumType)

# DRAM is small enough that promotions must demand-demote for room, and
# the daemons wake often enough to run many times in 6,000 accesses.
CONFIG = SimulationConfig(
    dram_pages=(64,), pm_pages=(512,),
    daemons=DaemonConfig(kpromoted_interval_s=0.0005,
                         kswapd_interval_s=0.0005,
                         hint_scan_interval_s=0.0005),
    seed=3,
)


class CountedRun:
    """One run's counters plus the calls the guards count."""

    def __init__(self, policy):
        self.enum_getattr_calls = []
        self.pressure_callers = []
        self.slot_callers = []
        patches = [
            (Watermarks, "pressure", self._recording_pressure(Watermarks.pressure)),
            (PageTable, "_slot", self._recording_slot(PageTable._slot)),
        ]
        if ENUM_COUNTABLE:
            patches.append(
                (EnumType, "__getattr__", self._counting_getattr(EnumType.__getattr__))
            )
        originals = [(owner, name, vars(owner)[name]) for owner, name, __ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            workload = ShiftingHotSetWorkload(400, 6000, seed=3, write_ratio=0.2)
            self.counters = run_workload(workload, CONFIG, policy).counters
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    def _counting_getattr(self, original):
        def counting(cls, name):
            self.enum_getattr_calls.append((cls.__name__, name))
            return original(cls, name)
        return counting

    def _recording_pressure(self, original):
        def recording(marks, free_pages):
            self.pressure_callers.append(sys._getframe(1).f_code.co_name)
            return original(marks, free_pages)
        return recording

    def _recording_slot(self, original):
        def recording(table, vpage):
            self.slot_callers.append(sys._getframe(1).f_code.co_name)
            return original(table, vpage)
        return recording


@pytest.fixture(scope="module", params=["nimble", "autotiering-cpm", "multiclock"])
def counted(request):
    run = CountedRun(request.param)
    counters = run.counters
    # The run went through the paths the guards are about.
    assert counters["faults.minor"] > 0
    assert counters["migrate.promotions"] > 0
    if request.param == "autotiering-cpm":
        assert counters["faults.hint"] > 0
    else:
        # Demotions beyond kswapd's are promote_page's demand demotions.
        assert counters["migrate.demotions"] > counters["kswapd.demoted"]
    if request.param == "multiclock":
        assert counters["kpromoted.runs"] > 0
        assert counters["kpromoted.promoted"] > 0
    return run


def test_run_never_probes_an_enum_class(counted):
    if not ENUM_COUNTABLE:
        pytest.skip("this interpreter's EnumType has no __getattr__ to count")
    assert counted.enum_getattr_calls == []


def test_pressure_is_derived_only_where_a_frame_count_changes(counted):
    counters = counted.counters
    migrated = (counters["migrate.promotions"] + counters["migrate.demotions"]
                + counters.get("migrate.lateral", 0))
    nodes = len(CONFIG.dram_pages) + len(CONFIG.pm_pages)
    derived = [c for c in counted.pressure_callers if c != "check_invariants"]
    assert len(derived) == (
        nodes + counters["alloc.pages"] + 2 * migrated
        + counters.get("reclaim.evictions", 0)
    )


def test_a_fault_maps_at_the_slot_its_access_found(counted):
    # The autotiering-cpm run hint-faults, so its scanner poisoned.
    assert set(counted.slot_callers) <= {"unmap"}
