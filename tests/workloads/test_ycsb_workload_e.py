"""Unit tests for YCSB workload E on the scan-capable backend."""

import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.ycsb import MAX_SCAN_LENGTH, WORKLOAD_MIXES, YCSBSession

CONFIG = SimulationConfig(dram_pages=(512,), pm_pages=(4096,))


def loaded_session(n_records=600):
    session = YCSBSession(n_records, value_size=512, seed=9, backend="sorted")
    machine = Machine(CONFIG, "static")
    run_workload(session.load_phase(), CONFIG, machine=machine)
    return session, machine


def test_e_mix_matches_ycsb_spec():
    mix = WORKLOAD_MIXES["E"]
    assert mix.scan == 0.95
    assert mix.insert == 0.05


def test_memcached_backend_still_refuses_e():
    with pytest.raises(ValueError, match="non-operational"):
        YCSBSession(100, backend="memcached").phase("E", ops=1)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        YCSBSession(100, backend="rocksdb")


def test_e_runs_on_sorted_backend():
    session, machine = loaded_session()
    result = run_workload(session.phase("E", ops=400), CONFIG, machine=machine)
    assert result.operations == 400
    assert result.accesses > 400  # scans touch many pages per op


def test_scans_touch_contiguous_data_pages():
    session, machine = loaded_session()
    phase = session.phase("E", ops=100)
    phase.setup(machine)
    store = session.store
    runs = []
    current = []
    for block in phase.blocks():
        rows = zip(
            block.vpage.tolist(), block.write.tolist(),
            block.lines.tolist(), block.op_boundary.tolist(),
        )
        for vpage, is_write, lines, boundary in rows:
            machine.touch(block.process, vpage, is_write=is_write, lines=lines)
            if vpage >= store.data_base:
                current.append(vpage)
            if boundary:
                if len(current) > 1:
                    runs.append(current)
                current = []
    assert runs, "expected multi-page scans"
    for run in runs:
        assert run == list(range(run[0], run[0] + len(run)))
        assert len(run) <= MAX_SCAN_LENGTH // store.items_per_page + 2


def test_e_inserts_grow_the_store():
    session, machine = loaded_session()
    before = session.next_key
    result = run_workload(session.phase("E", ops=2000), CONFIG, machine=machine)
    assert session.next_key > before
    assert result.operations == 2000


def test_other_phases_work_on_sorted_backend():
    session, machine = loaded_session()
    for name in ("A", "C", "F"):
        result = run_workload(session.phase(name, ops=200), CONFIG, machine=machine)
        assert result.operations == 200, name
