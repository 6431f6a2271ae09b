"""Unit tests for NUMA node frame accounting."""

import pytest

from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.watermarks import PressureLevel


def make_node(capacity=16, tier=MemoryTier.DRAM):
    return NumaNode.create(0, tier, capacity, total_pages=capacity * 4)


def test_pm_tag():
    assert NumaNode.create(1, MemoryTier.PM, 100, 400).is_pm
    assert not make_node().is_pm


def test_positive_capacity_required():
    with pytest.raises(ValueError):
        NumaNode.create(0, MemoryTier.DRAM, 0, 100)


def test_allocate_until_full():
    node = make_node(capacity=4)
    pages = [node.allocate_page(is_anon=True) for __ in range(4)]
    assert node.free_pages == 0
    assert not node.can_allocate()
    with pytest.raises(MemoryError):
        node.allocate_page(is_anon=True)
    assert all(page.node_id == 0 for page in pages)


def test_release_frame_returns_capacity():
    node = make_node(capacity=2)
    page = node.allocate_page(is_anon=True)
    node.release_frame(page)
    assert node.free_pages == 2


def test_release_checks_node_identity():
    node_a = make_node()
    node_b = NumaNode.create(1, MemoryTier.PM, 16, 64)
    page = node_a.allocate_page(is_anon=True)
    with pytest.raises(ValueError):
        node_b.release_frame(page)


def test_release_requires_off_lru():
    node = make_node()
    page = node.allocate_page(is_anon=True)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    with pytest.raises(ValueError):
        node.release_frame(page)


def test_adopt_page_reassigns_node():
    source = make_node()
    dest = NumaNode.create(1, MemoryTier.PM, 16, 64)
    page = source.allocate_page(is_anon=True)
    dest.adopt_page(page, source)
    assert page.node_id == 1
    assert dest.used_pages == 1
    assert source.used_pages == 0
    assert (source.free, dest.free) == (16, 15)


def test_adopt_when_full_raises():
    source = make_node()
    dest = NumaNode.create(1, MemoryTier.PM, 1, 64)
    dest.allocate_page(is_anon=True)
    page = source.allocate_page(is_anon=True)
    with pytest.raises(MemoryError):
        dest.adopt_page(page, source)
    assert page.node_id == 0
    assert (source.used_pages, dest.used_pages) == (1, 1)


def test_adopt_from_empty_source_detects_underflow():
    source = make_node()
    dest = NumaNode.create(1, MemoryTier.PM, 16, 64)
    page = source.allocate_page(is_anon=True)
    source.release_frame(page)
    with pytest.raises(RuntimeError):
        dest.adopt_page(page, source)
    assert dest.used_pages == 0


def test_pressure_tracks_free_pages():
    node = make_node(capacity=100)
    assert node.pressure() is PressureLevel.NONE
    while node.free_pages > node.watermarks.min_pages - 1:
        node.allocate_page(is_anon=True)
    assert node.pressure() is PressureLevel.MIN


def test_underflow_detected():
    node = make_node()
    page = node.allocate_page(is_anon=True)
    node.release_frame(page)
    page.node_id = node.node_id
    with pytest.raises(RuntimeError):
        node.release_frame(page)
