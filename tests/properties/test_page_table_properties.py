"""The region-packed ``v2p`` translation column against a dict model.

``PageTable.v2p`` gives every region registered with ``add_region`` a
slice of one column, holding each vpage's pfn, ``UNMAPPED``, or
``-2 - pfn`` when the translation is poisoned, plus a trailing sentinel
that vpages outside every region resolve to.  For any interleaving of
region registrations, maps, unmaps, poisonings and hint-fault
unpoisonings (vpages outside every region included, which ``map``
refuses), the column, read through ``resolve`` and ``pfn``, must agree
with a dict the test keeps at every vpage, ``slot_supervised`` with the
regions, ``len`` and ``vpages`` with the dict, and the column's size
must be the mapped footprint, not the highest vpage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm.page import Page
from repro.mm.page_table import UNMAPPED, PageTable

#: Candidate regions: (start, n_pages, supervised).  Far-apart starts,
#: GAPBS-style, make a dense column huge; the packed one stays small.
REGIONS = ((0, 40, False), (100, 7, True), (1 << 22, 30, False), (7 << 20, 5, True))
VPAGES = [
    vpage for start, n, __ in REGIONS for vpage in (start, start + 1, start + n - 1)
] + [60, 99, 107, 1 << 20, (7 << 20) + 5, 1 << 26]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(("map", "unmap", "poison", "unpoison", "region")),
        st.integers(0, len(VPAGES) - 1),
    ),
    max_size=150,
)


def _expected(model: dict, vpage: int) -> int:
    """The column entry the model gives: model[vpage] = (pfn, poisoned)."""
    if vpage not in model:
        return UNMAPPED
    pfn, poisoned = model[vpage]
    return -2 - pfn if poisoned else pfn


def _check(table: PageTable, registered: list, model: dict) -> None:
    vpages = np.array(VPAGES, dtype=np.int64)
    slots = table.resolve(vpages)
    values = table.v2p[slots]
    supervised = table.slot_supervised[slots]
    for i, vpage in enumerate(VPAGES):
        region = next(
            (r for r in registered if r[0] <= vpage < r[0] + r[1]), None
        )
        if region is None:
            assert slots[i] == -1 and values[i] == UNMAPPED, vpage
        else:
            assert values[i] == _expected(model, vpage), vpage
        assert table.pfn(vpage) == model.get(vpage, (None,))[0], vpage
        want_supervised = region is not None and region[2]
        assert bool(supervised[i]) == want_supervised
    assert table.v2p[-1] == UNMAPPED, "the sentinel slot was written"
    assert len(table.v2p) == sum(n for __, n, __s in registered) + 1
    assert len(table.slot_supervised) == len(table.v2p)
    assert table.n_regions == len(registered)
    assert len(table) == len(model)
    assert table.vpages() == sorted(model)


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_region_packed_column_matches_entries(ops):
    table = PageTable(1)
    registered: list = []
    model: dict = {}  # vpage -> (pfn, poisoned)
    for op, index in ops:
        vpage = VPAGES[index]
        inside = any(r[0] <= vpage < r[0] + r[1] for r in registered)
        if op == "region":
            candidates = [r for r in REGIONS if r not in registered]
            if candidates:
                region = candidates[index % len(candidates)]
                table.add_region(*region)
                registered.append(region)
        elif op == "map" and vpage not in model:
            page = Page(0)
            if inside:
                table.map(vpage, page)
                model[vpage] = (page.pfn, False)
            else:
                with pytest.raises(ValueError):
                    table.map(vpage, page)
        elif op == "unmap" and vpage in model:
            assert table.unmap(vpage) == model.pop(vpage)[0]
        elif op == "poison":
            assert table.poison(vpage) == model.get(vpage, (None,))[0]
            if vpage in model:
                model[vpage] = (model[vpage][0], True)
        elif op == "unpoison" and vpage in model:
            # What a hint fault does: write the plain pfn back.
            table.v2p[table._slot(vpage)] = model[vpage][0]
            model[vpage] = (model[vpage][0], False)
        _check(table, registered, model)


def test_generations_move_on_unmap_and_poison_only():
    table = PageTable(1)
    table.add_region(0, 8)
    page = Page(0)
    table.map(3, page)
    assert (table._unmap_gen, table._poison_gen) == (0, 0)
    table.poison(3)
    assert (table._unmap_gen, table._poison_gen) == (0, 1)
    table.poison(3)  # already poisoned: nothing turned slow
    assert (table._unmap_gen, table._poison_gen) == (0, 1)
    table.unmap(3)
    assert (table._unmap_gen, table._poison_gen) == (1, 1)
    assert table.v2p[3] == UNMAPPED


def test_far_regions_cost_their_footprint_not_their_address():
    """BC's last property array ends near vpage 7.3M; its translation
    column is the size of what is mapped."""
    table = PageTable(1)
    table.add_region(0, 10)
    table.add_region(7 << 20, 5)
    page = Page(0)
    table.map((7 << 20) + 4, page)
    assert len(table.v2p) == 16
    slots = table.resolve(np.array([(7 << 20) + 4], dtype=np.int64))
    assert table.v2p[slots[0]] == page.pfn
