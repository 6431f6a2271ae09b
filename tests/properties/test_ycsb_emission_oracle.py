"""Columnar YCSB emission against the per-operation reference.

``ycsb_oracle.OracleSession`` is the emitter as it was: one store call,
one scalar zipfian rank and one scalar cache draw per probe for every
operation.  The phases now lay out each batch of operations as columns.
On Hypothesis-generated sessions (both backends, every mix, stores from
one record up, headroom from none to half, three cache hit rates,
batch sizes small enough that phases cross many batch edges, load
phases repeated) both must emit the same touches, leave the same
``next_key`` and the same store layout after every phase.

Each sequence runs in three sessions with equal arguments, starting
from an empty phase memo: the first records every phase, the second
runs each phase right after the first and replays its record, and the
third inserts an extra phase halfway, so it replays the phases before
it and computes its own from there.  Each must match its own oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ycsb_oracle import OracleSession

from repro.machine import Machine
from repro.sim.config import SimulationConfig
from repro.workloads import ycsb
from repro.workloads.kvstore import SlabKVStore

CONFIG = SimulationConfig(dram_pages=(64,), pm_pages=(256,))


def layout(store) -> tuple:
    if isinstance(store, SlabKVStore):
        return store._locations, store._next_slot
    return store._keys, store.max_key


def _divergence(ours: list, theirs: list) -> int | None:
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return i
    return None if len(ours) == len(theirs) else min(len(ours), len(theirs))


class Checked:
    """One session beside its oracle, compared after every phase."""

    def __init__(self, n_records, kwargs) -> None:
        self.session = ycsb.YCSBSession(n_records, **kwargs)
        self.session.ensure_setup(Machine(CONFIG, "static"))
        self.oracle = OracleSession(n_records, **kwargs)

    def run(self, label, ops, *, replayed=False) -> None:
        session, oracle = self.session, self.oracle
        if label == "LOAD":
            phase = session.load_phase()
            theirs = oracle.load()
        else:
            phase = session.phase(label, ops)
            theirs = oracle.phase(label, ops, batch=ycsb._BATCH)
        blocks = list(phase.blocks())
        if replayed:
            assert not any(block.vpage.flags.writeable for block in blocks), label
        ours = [
            row
            for block in blocks
            for row in zip(
                block.vpage.tolist(), block.write.tolist(),
                block.lines.tolist(), block.op_boundary.tolist(),
            )
        ]
        theirs = list(theirs)
        at = _divergence(ours, theirs)
        assert at is None, (
            f"{label}: touch {at} differs: {ours[at : at + 2]} vs {theirs[at : at + 2]}"
        )
        assert session.next_key == oracle.next_key, label
        assert layout(session.store) == oracle.store.layout(), label


def check_sequence(backend, n_records, headroom, hit_rate, seed, value_size, phases):
    kwargs = dict(
        value_size=value_size, seed=seed, insert_headroom=headroom,
        hash_cache_hit_rate=hit_rate, backend=backend,
    )
    ycsb._MEMO.clear()
    first, second = Checked(n_records, kwargs), Checked(n_records, kwargs)
    steps = [("LOAD", 0)] + phases
    for label, ops in steps:
        first.run(label, ops)
        second.run(label, ops, replayed=True)
    half = len(steps) // 2
    diverged = Checked(n_records, kwargs)
    for label, ops in steps[:half] + [("C", 7)] + steps[half:]:
        diverged.run(label, ops)


@settings(max_examples=25, deadline=None)
@given(
    backend=st.sampled_from(("memcached", "sorted")),
    n_records=st.integers(1, 3000),
    headroom=st.floats(0.0, 0.5),
    hit_rate=st.sampled_from((0.0, 0.8, 1.0)),
    seed=st.integers(0, 1000),
    value_size=st.sampled_from((100, 1024, 3000)),
    phases=st.lists(
        st.tuples(st.sampled_from(("A", "B", "C", "D", "E", "F", "W", "LOAD")),
                  st.integers(1, 2500)),
        min_size=1, max_size=4,
    ),
    batch=st.sampled_from((3, 64, 2048)),
)
def test_columnar_stream_matches_oracle(
    backend, n_records, headroom, hit_rate, seed, value_size, phases, batch
):
    if backend == "memcached":
        # Memcached refuses E; D is the other mix that inserts.
        phases = [("D" if label == "E" else label, ops) for label, ops in phases]
    saved, ycsb._BATCH = ycsb._BATCH, batch
    try:
        check_sequence(backend, n_records, headroom, hit_rate, seed, value_size, phases)
    finally:
        ycsb._BATCH = saved


@pytest.mark.parametrize("backend,label", [("memcached", "D"), ("sorted", "E")])
@pytest.mark.parametrize("n_records", [1, 2, 3])
def test_tiny_stores_and_no_headroom(backend, label, n_records):
    """The ``n <= 2`` rank branch, and every insert degrading at once."""
    check_sequence(backend, n_records, 0.0, 0.8, 5, 1024, [(label, 300), ("A", 50)])


def test_full_batches_with_inserts_past_the_headroom():
    """Real batch size, a phase crossing it, and inserts outliving the
    headroom within one batch."""
    check_sequence("sorted", 400, 0.05, 0.8, 9, 1024, [("E", 4200), ("D", 2100)])
