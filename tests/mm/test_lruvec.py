"""Unit tests for the intrusive LRU lists and the per-node LruVec."""

import pytest

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind, LruList, LruVec
from repro.mm.page import Page


def make_pages(n, node_id=0):
    return [Page(node_id) for __ in range(n)]


def test_empty_list():
    lst = LruList(ListKind.INACTIVE, True)
    assert len(lst) == 0
    assert not lst
    assert lst.head is None
    assert lst.tail is None
    assert lst.pop_tail() is None


def test_add_head_ordering():
    lst = LruList(ListKind.INACTIVE, True)
    a, b, c = make_pages(3)
    for page in (a, b, c):
        lst.add_head(page)
    assert lst.head is c
    assert lst.tail is a
    assert list(lst) == [c, b, a]


def test_add_tail_ordering():
    lst = LruList(ListKind.INACTIVE, True)
    a, b = make_pages(2)
    lst.add_tail(a)
    lst.add_tail(b)
    assert lst.tail is b
    assert list(lst) == [a, b]


def test_add_sets_lru_flag_and_backpointer():
    lst = LruList(ListKind.ACTIVE, False)
    (page,) = make_pages(1)
    lst.add_head(page)
    assert page.lru is lst
    assert page.test(PageFlags.LRU)


def test_remove_middle():
    lst = LruList(ListKind.INACTIVE, True)
    a, b, c = make_pages(3)
    for page in (a, b, c):
        lst.add_head(page)
    lst.remove(b)
    assert list(lst) == [c, a]
    assert b.lru is None
    assert not b.test(PageFlags.LRU)
    assert b.lru_prev is None and b.lru_next is None


def test_remove_head_and_tail():
    lst = LruList(ListKind.INACTIVE, True)
    a, b = make_pages(2)
    lst.add_head(a)
    lst.add_head(b)
    lst.remove(b)  # head
    assert lst.head is a and lst.tail is a
    lst.remove(a)  # last element
    assert lst.head is None and lst.tail is None and len(lst) == 0


def test_remove_from_wrong_list_raises():
    lst1 = LruList(ListKind.INACTIVE, True)
    lst2 = LruList(ListKind.ACTIVE, True)
    (page,) = make_pages(1)
    lst1.add_head(page)
    with pytest.raises(ValueError):
        lst2.remove(page)


def test_double_add_raises():
    lst = LruList(ListKind.INACTIVE, True)
    (page,) = make_pages(1)
    lst.add_head(page)
    with pytest.raises(ValueError):
        lst.add_head(page)


def test_pop_tail_returns_lru_end():
    lst = LruList(ListKind.INACTIVE, True)
    a, b = make_pages(2)
    lst.add_head(a)
    lst.add_head(b)
    assert lst.pop_tail() is a
    assert lst.pop_tail() is b
    assert lst.pop_tail() is None


def test_rotate_to_head():
    lst = LruList(ListKind.INACTIVE, True)
    a, b, c = make_pages(3)
    for page in (a, b, c):
        lst.add_head(page)
    lst.rotate_to_head(a)
    assert list(lst) == [a, c, b]
    assert lst.tail is b


def test_iter_from_tail_order():
    lst = LruList(ListKind.INACTIVE, True)
    a, b, c = make_pages(3)
    for page in (a, b, c):
        lst.add_head(page)
    assert list(lst.iter_from_tail()) == [a, b, c]


def test_iter_from_tail_safe_against_removal_of_yielded():
    lst = LruList(ListKind.INACTIVE, True)
    pages = make_pages(5)
    for page in pages:
        lst.add_head(page)
    seen = []
    for page in lst.iter_from_tail():
        seen.append(page)
        lst.remove(page)
    assert seen == pages
    assert len(lst) == 0


def test_iter_from_tail_with_rotation_is_circular():
    """Rotating the yielded page to the head turns tail iteration into a
    circular CLOCK hand: within one list-length of steps every page is
    visited once, and the walk then wraps around instead of ending.
    Callers must therefore bound such scans with a budget."""
    lst = LruList(ListKind.INACTIVE, True)
    pages = make_pages(4)
    for page in pages:
        lst.add_head(page)
    seen = []
    for page in lst.iter_from_tail():
        if len(seen) >= 2 * len(pages):
            break  # the budget every production scan applies
        seen.append(page)
        lst.rotate_to_head(page)
    assert set(seen[:4]) == set(pages)  # one full revolution covers all
    assert seen[4:] == seen[:4]  # and then the hand wraps around


def test_list_name():
    assert LruList(ListKind.INACTIVE, True).name == "anon_inactive"
    assert LruList(ListKind.PROMOTE, False).name == "file_promote"
    assert LruList(ListKind.UNEVICTABLE, None).name == "unevictable"


def test_lruvec_has_seven_lists():
    vec = LruVec()
    names = {lst.name for lst in vec.all_lists()}
    assert names == {
        "anon_inactive", "anon_active", "anon_promote",
        "file_inactive", "file_active", "file_promote",
        "unevictable",
    }


def test_lruvec_list_of_respects_page_family():
    vec = LruVec()
    anon = Page(0, is_anon=True)
    file_page = Page(0, is_anon=False)
    assert vec.list_of(anon, ListKind.ACTIVE).name == "anon_active"
    assert vec.list_of(file_page, ListKind.ACTIVE).name == "file_active"


def test_lruvec_counts_and_evictable():
    vec = LruVec()
    pages = make_pages(3)
    vec.list_for(ListKind.INACTIVE, True).add_head(pages[0])
    vec.list_for(ListKind.ACTIVE, True).add_head(pages[1])
    vec.list_for(ListKind.UNEVICTABLE).add_head(pages[2])
    assert vec.counts()["anon_inactive"] == 1
    assert vec.evictable_pages() == 2
