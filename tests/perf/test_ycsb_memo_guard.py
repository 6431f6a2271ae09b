"""Fig 5's policies share one YCSB emission.

Fig 5 runs Load, A..D in one session per policy, all built with equal
arguments.  The first session lays every phase out with
``touch_columns`` and records it in the module memo; the later sessions
replay the record without laying anything out, and add no entry.  A
session whose phase differs from every record (another ``ops``, another
phase order, another ``_BATCH``) computes that phase itself and leaves
the existing entries as they were; a session that abandons a phase
partway never reads or writes the memo again.  The memo holds one
argument tuple, and a replayed block hands the driver read-only columns.
"""

from __future__ import annotations

import pytest

from repro.machine import Machine
from repro.sim.config import SimulationConfig
from repro.workloads import ycsb
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession

CONFIG = SimulationConfig(dram_pages=(64,), pm_pages=(256,))
N_RECORDS = 600
OPS = 700


@pytest.fixture(autouse=True)
def empty_memo():
    ycsb._MEMO.clear()
    yield
    ycsb._MEMO.clear()


@pytest.fixture
def layouts(monkeypatch):
    """Counts ``touch_columns`` calls made by the YCSB phases."""
    calls = []
    touch_columns = ycsb.touch_columns

    def counting(*args):
        calls.append(args[1].size)
        return touch_columns(*args)

    monkeypatch.setattr(ycsb, "touch_columns", counting)
    return calls


def _session(seed: int = 5) -> YCSBSession:
    session = YCSBSession(N_RECORDS, value_size=1024, seed=seed)
    session.ensure_setup(Machine(CONFIG, "static"))
    return session


def _run(session: YCSBSession, steps) -> list:
    blocks = []
    for label, ops in steps:
        phase = session.load_phase() if label == "LOAD" else session.phase(label, ops)
        blocks += phase.blocks()
    return blocks


FIG5 = [("LOAD", 0)] + [(label, OPS) for label in EXECUTION_SEQUENCE]


def _entries() -> dict:
    return {key: value for key, value in ycsb._MEMO.items() if key != "config"}


def test_later_sessions_replay_every_phase(layouts):
    first = _run(_session(), FIG5)
    recorded = _entries()
    assert layouts and len(recorded) == len(FIG5)
    calls = len(layouts)
    for _ in range(4):
        later = _run(_session(), FIG5)
        assert len(layouts) == calls
        assert [b.vpage.tolist() for b in later] == [b.vpage.tolist() for b in first]
        assert all(_entries()[key] is value for key, value in recorded.items())
        assert len(_entries()) == len(recorded)


def test_memo_holds_one_configuration():
    first = _session()
    _run(first, FIG5[:2])
    assert ycsb._MEMO["config"] == first._config
    other = _session(seed=6)
    _run(other, FIG5[:3])
    assert ycsb._MEMO["config"] == other._config
    assert len(_entries()) == 3


@pytest.mark.parametrize("steps,batch,computed", [
    (FIG5[:1] + [("A", OPS + 1)], None, 1),          # another ops
    (FIG5[:1] + [("B", OPS), ("A", OPS)], None, 2),  # another order
    (FIG5[:2], 256, 2),                              # another _BATCH
], ids=["ops", "order", "batch"])
def test_a_diverging_phase_computes_its_own_columns(steps, batch, computed, layouts, monkeypatch):
    _run(_session(), FIG5)
    recorded = _entries()
    calls = len(layouts)
    if batch is not None:
        monkeypatch.setattr(ycsb, "_BATCH", batch)
    _run(_session(), steps)
    assert len(layouts) > calls
    assert all(_entries()[key] is value for key, value in recorded.items())
    assert len(_entries()) == len(recorded) + computed


def test_an_abandoned_phase_ends_memo_use(layouts):
    _run(_session(), FIG5)
    recorded = _entries()
    calls = len(layouts)
    session = _session()
    _run(session, FIG5[:1])
    next(session.phase("A", OPS).blocks())  # replayed, then abandoned
    assert len(layouts) == calls
    _run(session, FIG5[2:])
    assert len(layouts) > calls  # B..D computed, though recorded
    assert _entries().keys() == recorded.keys()
    assert all(_entries()[key] is value for key, value in recorded.items())

    # A computing session that abandons a phase records nothing for it.
    ycsb._MEMO.clear()
    session = _session()
    _run(session, FIG5[:1])
    next(session.phase("A", OPS).blocks())
    _run(session, FIG5[2:])
    assert [step for __, __, step in _entries()] == [("LOAD", N_RECORDS)]


def test_replayed_columns_are_read_only():
    _run(_session(), FIG5[:2])
    for block in _run(_session(), FIG5[:2]):
        for column in (block.vpage, block.write, block.lines, block.op_boundary):
            with pytest.raises(ValueError):
                column[0] = column[0]
