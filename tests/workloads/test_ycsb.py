"""Unit tests for the YCSB workload generators."""

from typing import NamedTuple

import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.ycsb import (
    EXECUTION_SEQUENCE,
    WORKLOAD_MIXES,
    YCSBSession,
)

CONFIG = SimulationConfig(dram_pages=(512,), pm_pages=(4096,))


def make_loaded_session(n_records=500, machine=None):
    session = YCSBSession(n_records, value_size=512, seed=9)
    machine = machine or Machine(CONFIG, "static")
    run_workload(session.load_phase(), CONFIG, machine=machine)
    return session, machine


def test_mixes_match_paper_description():
    assert WORKLOAD_MIXES["A"].read == 0.5 and WORKLOAD_MIXES["A"].update == 0.5
    assert WORKLOAD_MIXES["B"].read == 0.95
    assert WORKLOAD_MIXES["C"].read == 1.0
    assert WORKLOAD_MIXES["D"].insert == 0.05
    assert WORKLOAD_MIXES["D"].distribution == "latest"
    assert WORKLOAD_MIXES["F"].rmw == 0.5
    assert WORKLOAD_MIXES["W"].update == 1.0


def test_execution_sequence_puts_d_last():
    """Section V-B: D changes the record count, so it runs last."""
    assert EXECUTION_SEQUENCE[-1] == "D"
    assert set(EXECUTION_SEQUENCE) == {"A", "B", "C", "D", "F", "W"}


def test_workload_e_is_non_operational():
    session = YCSBSession(100)
    with pytest.raises(ValueError, match="non-operational"):
        session.phase("E", ops=10)


@pytest.mark.parametrize("headroom", [-0.5, -1e-9, float("nan")])
def test_negative_insert_headroom_rejected(headroom):
    """Regions sized for fewer records than the load inserts would leave
    the load touching unmapped pages."""
    with pytest.raises(ValueError, match="insert_headroom"):
        YCSBSession(300, insert_headroom=headroom)


def test_zero_insert_headroom_degrades_every_insert():
    session = YCSBSession(300, value_size=512, seed=9, insert_headroom=0.0)
    machine = Machine(CONFIG, "static")
    run_workload(session.load_phase(), CONFIG, machine=machine)
    result = run_workload(session.phase("D", ops=500), CONFIG, machine=machine)
    assert result.operations == 500
    assert session.next_key == session.max_records == 300


def test_unknown_workload_rejected():
    session = YCSBSession(100)
    with pytest.raises(KeyError):
        session.phase("Z", ops=10)


def test_load_phase_inserts_every_record():
    session, machine = make_loaded_session(300)
    assert session.store.n_records == 300
    assert session.next_key == 300


def test_phase_requires_load_first():
    session = YCSBSession(100)
    machine = Machine(CONFIG, "static")
    phase = session.phase("A", ops=10)
    with pytest.raises(RuntimeError):
        run_workload(phase, CONFIG, machine=machine)


def test_read_only_workload_c_never_writes():
    session, machine = make_loaded_session(300)
    phase = session.phase("C", ops=500)
    writes = sum(1 for access in _drive(phase, machine) if access.is_write)
    assert writes == 0


def test_write_only_workload_w_always_writes_data():
    session, machine = make_loaded_session(300)
    phase = session.phase("W", ops=200)
    ops_with_write = 0
    current_has_write = False
    for access in _drive(phase, machine):
        current_has_write = current_has_write or access.is_write
        if access.op_boundary:
            ops_with_write += current_has_write
            current_has_write = False
    assert ops_with_write == 200


def test_workload_d_grows_the_store():
    session, machine = make_loaded_session(300)
    before = session.next_key
    phase = session.phase("D", ops=2000)
    for __ in _drive(phase, machine):
        pass
    assert session.next_key > before


def test_zipfian_skew_concentrates_traffic():
    """The top 10% of keys should draw well over half the requests."""
    session, machine = make_loaded_session(1000)
    phase = session.phase("C", ops=4000)
    from collections import Counter

    data_touches = Counter()
    for access in _drive(phase, machine):
        if access.vpage >= session.store.data_base:
            data_touches[access.vpage] += 1
    counts = sorted(data_touches.values(), reverse=True)
    top_decile = sum(counts[: max(1, len(counts) // 10)])
    assert top_decile > 0.4 * sum(counts)


def test_latest_distribution_favors_new_keys():
    session, machine = make_loaded_session(1000)
    phase = session.phase("D", ops=3000)
    recent_reads = 0
    total_reads = 0
    store = session.store
    for access in _drive(phase, machine):
        if access.vpage >= store.data_base and not access.is_write:
            slot = access.vpage - store.data_base
            total_reads += 1
            if slot >= (session.next_key // store.items_per_page) * 3 // 4:
                recent_reads += 1
    assert total_reads > 0
    assert recent_reads / total_reads > 0.5


def test_deterministic_across_runs():
    def collect():
        session, machine = make_loaded_session(200)
        phase = session.phase("A", ops=300)
        return [(a.vpage, a.is_write) for a in _drive(phase, machine)]

    assert collect() == collect()


def test_footprint_exceeds_record_pages():
    session = YCSBSession(1000, value_size=1024)
    assert session.footprint_pages() > 1000 // session.store.items_per_page


class Row(NamedTuple):
    vpage: int
    is_write: bool
    lines: int
    op_boundary: bool


def _drive(phase, machine):
    """Set up a phase and yield its block rows while applying them."""
    phase.setup(machine)
    for block in phase.blocks():
        rows = zip(
            block.vpage.tolist(), block.write.tolist(),
            block.lines.tolist(), block.op_boundary.tolist(),
        )
        for row in map(Row._make, rows):
            machine.touch(block.process, row.vpage, is_write=row.is_write, lines=row.lines)
            yield row
