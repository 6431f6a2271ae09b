"""Unit tests for Page flags and reverse-map harvesting."""

import pytest

from repro.mm.flags import PageFlags
from repro.mm.page import Page
from repro.mm.page_table import PageTable


def test_pages_get_unique_pfns():
    assert Page(0).pfn != Page(0).pfn


def test_flag_set_clear_test():
    page = Page(0)
    assert not page.test(PageFlags.ACTIVE)
    page.set(PageFlags.ACTIVE)
    assert page.test(PageFlags.ACTIVE)
    page.clear(PageFlags.ACTIVE)
    assert not page.test(PageFlags.ACTIVE)


def test_test_and_clear():
    page = Page(0)
    page.set(PageFlags.REFERENCED)
    assert page.test_and_clear(PageFlags.REFERENCED) is True
    assert page.test_and_clear(PageFlags.REFERENCED) is False


SINGLE_FLAGS = [flag for flag in PageFlags if flag]
PINNED = PageFlags.LOCKED | PageFlags.UNEVICTABLE


def test_every_flag_is_covered():
    assert len(SINGLE_FLAGS) == 8
    assert all(bin(flag).count("1") == 1 for flag in SINGLE_FLAGS)


@pytest.mark.parametrize("flag", [*SINGLE_FLAGS, PINNED], ids=lambda f: f.name)
@pytest.mark.parametrize("as_int", [False, True], ids=["member", "int"])
def test_flag_helpers_agree_with_the_flag_word(flag, as_int):
    """Each helper returns a Python bool (or None) and moves exactly the
    bits of ``flag``, whether it is passed as a member or a plain int."""
    page = Page(0)
    # Every other bit set, so a helper touching the wrong bit shows.
    others = PageFlags(sum(f for f in SINGLE_FLAGS if not f & flag))
    page.flags = others
    arg = int(flag) if as_int else flag

    assert page.test(arg) is False
    assert page.test(arg) == bool(page.flags & flag)
    assert page.set(arg) is None
    assert PageFlags(page.flags) == others | flag
    assert page.test(arg) is True
    assert page.test(arg) == bool(page.flags & flag)

    assert page.test_and_clear(arg) is True
    assert PageFlags(page.flags) == others
    assert page.test_and_clear(arg) is False
    assert PageFlags(page.flags) == others

    page.set(arg)
    assert page.clear(arg) is None
    assert PageFlags(page.flags) == others
    assert page.test(arg) is False


def test_mask_tests_any_of_its_bits():
    """A two-bit mask reads as set when either bit is, as the pinned test
    (LOCKED or UNEVICTABLE) needs; clearing it clears both."""
    for bit in (PageFlags.LOCKED, PageFlags.UNEVICTABLE):
        page = Page(0)
        page.set(bit)
        assert page.test(PINNED) is True
        assert page.test(PINNED) == bool(page.flags & PINNED)
    page.set(PINNED)
    assert page.test_and_clear(PINNED) is True
    assert page.flags == PageFlags.NONE


def test_flags_are_independent():
    page = Page(0)
    page.set(PageFlags.ACTIVE)
    page.set(PageFlags.DIRTY)
    page.clear(PageFlags.ACTIVE)
    assert page.test(PageFlags.DIRTY)


def _table(pid):
    """A table whose one region covers vpages 0..31."""
    table = PageTable(pid)
    table.add_region(0, 32)
    return table


def _set_accessed(page):
    """What the MMU does to the page-level accessed bit on a touch."""
    page._store.pte_accessed[page.pfn] = True


def test_harvest_accessed_clears_all_mappings():
    page = Page(0)
    pt1 = _table(1)
    pt2 = _table(2)
    pt1.map(10, page)
    pt2.map(20, page)
    _set_accessed(page)
    assert page.harvest_accessed() is True
    assert not page._store.pte_accessed[page.pfn]
    assert page.harvest_accessed() is False


def test_harvest_accessed_any_mapping_counts():
    page = Page(0)
    pt1 = _table(1)
    pt2 = _table(2)
    pt1.map(10, page)
    pt2.map(20, page)
    _set_accessed(page)
    assert page.harvest_accessed() is True


def test_any_accessed_does_not_clear():
    page = Page(0)
    _table(1).map(0, page)
    _set_accessed(page)
    assert page.any_accessed() is True
    assert page._store.pte_accessed[page.pfn]


def test_unmapped_page_is_never_accessed():
    page = Page(0)
    assert not page.mapped
    assert page.harvest_accessed() is False


def test_anon_vs_file():
    assert Page(0, is_anon=True).is_anon
    assert not Page(0, is_anon=False).is_anon
