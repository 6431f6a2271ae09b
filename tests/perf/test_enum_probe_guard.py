"""Guard: no per-page path makes numpy probe an enum class.

ANDing a numpy ``int64`` scalar with a ``PageFlags`` member makes numpy
look up ``__array_ufunc__`` on the enum class.  On Python 3.11 every such
miss runs ``EnumType.__getattr__``, which made one flag test cost tens of
times the mask itself.  The per-page paths read the flag word with
``.item()`` and mask it with plain ints (DESIGN.md, "Page store").  This
test counts ``EnumType.__getattr__`` calls over small runs that fault,
hint-fault, promote, demand-demote and scan, and requires none.
"""

import enum

import pytest

from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ShiftingHotSetWorkload

EnumType = getattr(enum, "EnumType", None)

pytestmark = pytest.mark.skipif(
    EnumType is None or "__getattr__" not in vars(EnumType),
    reason="this interpreter's EnumType has no __getattr__ to count",
)

# DRAM is small enough that promotions must demand-demote for room, and
# the daemons wake often enough to run many times in 6,000 accesses.
CONFIG = SimulationConfig(
    dram_pages=(64,), pm_pages=(512,),
    daemons=DaemonConfig(kpromoted_interval_s=0.0005,
                         kswapd_interval_s=0.0005,
                         hint_scan_interval_s=0.0005),
    seed=3,
)


@pytest.fixture
def enum_getattr_calls(monkeypatch):
    calls = []
    original = EnumType.__getattr__

    def counting(cls, name):
        calls.append((cls.__name__, name))
        return original(cls, name)

    monkeypatch.setattr(EnumType, "__getattr__", counting)
    return calls


@pytest.mark.parametrize("policy", ["nimble", "autotiering-cpm", "multiclock"])
def test_run_never_probes_an_enum_class(policy, enum_getattr_calls):
    workload = ShiftingHotSetWorkload(400, 6000, seed=3, write_ratio=0.2)
    counters = run_workload(workload, CONFIG, policy).counters

    # The run went through the paths the guard is about.
    assert counters["faults.minor"] > 0
    assert counters["migrate.promotions"] > 0
    if policy == "autotiering-cpm":
        assert counters["faults.hint"] > 0
    else:
        # Demotions beyond kswapd's are promote_page's demand demotions.
        assert counters["migrate.demotions"] > counters["kswapd.demoted"]
    if policy == "multiclock":
        assert counters["kpromoted.runs"] > 0
        assert counters["kpromoted.promoted"] > 0

    assert enum_getattr_calls == []
