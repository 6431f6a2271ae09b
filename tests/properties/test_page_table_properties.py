"""The lazily built ``v2p`` translation column against an eager one.

``PageTable.v2p`` is built from the entries on the first
``ensure_dense_capacity`` call and maintained by ``map``/``unmap`` from
then on.  For any sequence of maps and unmaps, a column built at the
end, or part-way through, must equal one maintained from the start, and
both must agree with the entries themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm.page import Page
from repro.mm.page_table import PageTable

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(("map", "unmap")),
        st.one_of(st.integers(0, 200), st.integers(0, 70_000)),
    ),
    max_size=120,
)


def _replay(table: PageTable, ops, pages, build_at: int | None) -> None:
    for i, (op, vpage) in enumerate(ops):
        if i == build_at:
            assert table.ensure_dense_capacity(1)
        if op == "map" and vpage not in table:
            table.map(vpage, pages[i])
        elif op == "unmap" and vpage in table:
            table.unmap(vpage)


def _padded(column: np.ndarray, size: int) -> np.ndarray:
    out = np.full(size, -1, dtype=np.int64)
    out[: len(column)] = column
    return out


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy, build_at=st.integers(0, 130))
def test_late_built_v2p_equals_eager(ops, build_at):
    # The i-th op maps the same page (so the same pfn) in every table.
    pages = [Page(0) for __ in ops]
    eager, midway, late = PageTable(1), PageTable(1), PageTable(1)
    assert eager.ensure_dense_capacity(1)
    _replay(eager, ops, pages, None)
    _replay(midway, ops, pages, build_at)
    _replay(late, ops, pages, None)
    assert late.v2p is None, "v2p was allocated without being asked for"
    assert midway.ensure_dense_capacity(1) and late.ensure_dense_capacity(1)
    size = max(len(t.v2p) for t in (eager, midway, late))
    expected = np.full(size, -1, dtype=np.int64)
    for pte in eager.entries():
        expected[pte.vpage] = pte.page.pfn
    for table in (eager, midway, late):
        assert np.array_equal(_padded(table.v2p, size), expected)


def test_vpage_beyond_dense_bound_disables_v2p():
    table = PageTable(1)
    table.map(1 << 26, Page(0))
    assert not table.dense
    assert not table.ensure_dense_capacity(1)
    assert table.v2p is None
