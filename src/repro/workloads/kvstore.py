"""A slab-allocated, Memcached-like in-memory key-value store model.

The paper's YCSB experiments run against Memcached, "an in-memory cache
service that uses a large amount of main memory to maintain its data".
What the tiering policy sees from such a store is its *page-level access
pattern*, which is shaped by two things we model faithfully:

* **slab allocation** — records are packed into pages in insertion order,
  so the load phase lays keys out sequentially and the first-loaded
  records are the ones born in DRAM (insertion order is uncorrelated with
  request popularity, which is what gives dynamic tiering its opportunity);
* **the hash table** — every operation first probes a bucket page, giving
  each request a second, uniformly distributed page touch.

Operations translate keys to page touches.  The layout — which bucket
page and which slab page a key lives on — is written once, in
:meth:`SlabKVStore.hash_vpage` and :meth:`SlabKVStore.data_vpage`, as
arithmetic over numpy arrays; what each operation touches, in order, is
written once too, in :func:`touch_columns`, which lays out a batch of
operations on this store or the scan-capable
:class:`~repro.workloads.sorted_store.SortedKVStore` as page-touch
columns for the YCSB phases and the colocation tenants alike.
"""

from __future__ import annotations

import copy
from typing import Iterable

import numpy as np

from repro.sim.config import PAGE_SIZE

__all__ = [
    "SlabKVStore", "CACHE_LINE", "touch_columns",
    "READ", "UPDATE", "INSERT", "RMW", "SCAN",
]

CACHE_LINE = 64

_BUCKETS_PER_PAGE = PAGE_SIZE // 8

# Operation codes of :func:`touch_columns`, in the order of a YCSB mix's
# cumulative thresholds.
READ, UPDATE, INSERT, RMW, SCAN = range(5)


class SlabKVStore:
    """Key → page layout of a slab-allocated store.

    The store owns two virtual regions of its host process:

    * ``hash_base`` — the bucket array (8 bytes per bucket pointer);
    * ``data_base`` — slab pages, ``items_per_page`` records each.

    Keys are dense integers (YCSB's ``user<N>`` keys hash uniformly, and a
    dense id keeps the model deterministic).
    """

    #: Index pages an operation probes before its record: the bucket page.
    probes = 1
    #: Memcached implements no SCAN.
    supports_scan = False

    def __init__(
        self,
        *,
        value_size: int = 1024,
        hash_base: int = 0,
        data_base: int = 1 << 20,
        overhead: int = 56,
    ) -> None:
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        chunk = value_size + overhead
        if chunk > PAGE_SIZE:
            raise ValueError(
                f"records of {chunk} bytes exceed one page; multi-page items "
                "are out of scope (memcached's default max item fits a slab)"
            )
        self.value_size = value_size
        self.chunk_size = chunk
        self.items_per_page = PAGE_SIZE // chunk
        self.value_lines = max(1, chunk // CACHE_LINE)
        self.hash_base = hash_base
        self.data_base = data_base
        self._locations: dict[int, int] = {}
        self._next_slot = 0

    # -- layout ------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return len(self._locations)

    def data_pages_used(self) -> int:
        if self._next_slot == 0:
            return 0
        return (self._next_slot - 1) // self.items_per_page + 1

    def hash_pages(self, n_records: int) -> int:
        """Bucket-array pages for ``n_records`` keys (8-byte pointers,
        one bucket per record, memcached's default load factor ~1)."""
        return max(1, (n_records - 1) // _BUCKETS_PER_PAGE + 1)

    def footprint_pages(self, n_records: int) -> int:
        """Pages the store will occupy once ``n_records`` are loaded."""
        data = (n_records - 1) // self.items_per_page + 1 if n_records else 0
        return data + self.hash_pages(max(n_records, 1))

    def location(self, key: int) -> int | None:
        """The slab slot holding ``key``, or None if absent."""
        return self._locations.get(key)

    def locations(self, keys: np.ndarray) -> np.ndarray:
        """Slab slots of ``keys``, every one of which is present."""
        slot = self._locations
        return np.array([slot[key] for key in keys.tolist()], dtype=np.int64)

    def copy(self) -> "SlabKVStore":
        """An independent store with this one's layout."""
        clone = copy.copy(self)
        clone._locations = dict(self._locations)
        return clone

    def add_keys(self, keys: Iterable[int]) -> None:
        """Give absent ``keys`` the next slab slots, in order."""
        keys = list(keys)
        first = self._next_slot
        self._locations.update(zip(keys, range(first, first + len(keys))))
        self._next_slot = first + len(keys)

    def data_vpage(self, slot):
        """Slab page of ``slot`` (an int or an array of them)."""
        return self.data_base + slot // self.items_per_page

    def hash_vpage(self, key, n_records):
        """Bucket page of ``key`` in a table of ``n_records`` buckets
        (ints, or arrays of matching shape)."""
        # Dense keys hash uniformly over buckets; a multiplicative hash of
        # the key works as a deterministic stand-in for a uniform hash.
        return (
            self.hash_base
            + (key * 2654435761 % (1 << 32)) % n_records // _BUCKETS_PER_PAGE
        )

    def probe_vpages(self, key, n_records) -> tuple:
        """The index pages an operation on ``key`` probes, in order."""
        return (self.hash_vpage(key, n_records),)


def touch_columns(
    store, kind: np.ndarray, key: np.ndarray, scan_lengths: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Lay a batch of operations on ``store`` out as page-touch columns.

    ``kind`` holds an operation code per op (``INSERT`` inserts
    ``key``), ``key`` the key each op works on and ``scan_lengths`` the
    record count of each scan, in order.  Every op probes the index
    pages (probes read, except that an insert writes its last probe),
    then touches its record with the value's lines: a read reads it, an
    update or insert writes it.  An RMW is a read then an update; a
    scan is the probes then its page range with the store's
    ``scan_lines``, stopping at the largest key inserted before it.
    Inserting a present key updates it, and new keys are added to the
    store, in order; the keys a batch inserts must be distinct, and
    every other op's key must be present.

    Returns ``(vpage, write, lines, op_boundary, probe)``, where
    ``probe`` marks the index probes the CPU cache may absorb.
    """
    levels = store.probes
    kind = kind.copy()
    inserts = np.flatnonzero(kind == INSERT)
    insert_keys = key[inserts].tolist()
    present = np.array([store.location(k) is not None for k in insert_keys], bool)
    kind[inserts[present]] = UPDATE
    new = kind == INSERT
    length = np.array([levels + 1] * 3 + [2 * levels + 2, levels])[kind]
    scans = np.flatnonzero(kind == SCAN)
    if len(scans):
        # A scan stops at the largest key inserted before it.
        newest = np.maximum.accumulate(np.where(new, key, store.max_key))
        last_key = np.minimum(key[scans] + scan_lengths - 1, newest[scans])
        first = store.data_vpage(key[scans])
        pages = store.data_vpage(last_key) - first + 1
        length[scans] += pages
    # The slab hashes over its record count as each op runs.
    n_records = store.n_records + np.cumsum(new)
    store.add_keys(k for k, p in zip(insert_keys, present.tolist()) if not p)

    probes = [
        np.broadcast_to(col, key.shape) for col in store.probe_vpages(key, n_records)
    ]
    record = store.data_vpage(store.locations(key))
    end = np.cumsum(length)
    start = end - length
    total = int(end[-1])
    vpage = np.empty(total, np.int64)
    write = np.zeros(total, bool)
    lines = np.ones(total, np.int64)
    probe = np.zeros(total, bool)
    boundary = np.zeros(total, bool)
    boundary[end - 1] = True

    def probe_at(ops: np.ndarray, at: int) -> None:
        for level, col in enumerate(probes):
            vpage[start[ops] + at + level] = col[ops]
            probe[start[ops] + at + level] = True

    def record_at(ops: np.ndarray, at: int, is_write) -> None:
        vpage[start[ops] + at] = record[ops]
        write[start[ops] + at] = is_write
        lines[start[ops] + at] = store.value_lines

    probe_at(np.arange(len(kind)), 0)
    single = np.flatnonzero(kind != SCAN)
    record_at(single, levels, (kind[single] == UPDATE) | (kind[single] == INSERT))
    write[start[new] + levels - 1] = True  # an insert writes its bucket/leaf
    rmw = np.flatnonzero(kind == RMW)
    probe_at(rmw, levels + 1)
    record_at(rmw, 2 * levels + 1, True)
    if len(scans):
        offset = np.arange(pages.sum()) - np.repeat(np.cumsum(pages) - pages, pages)
        at = np.repeat(start[scans] + levels, pages) + offset
        vpage[at] = np.repeat(first, pages) + offset
        lines[at] = store.scan_lines
    return vpage, write, lines, boundary, probe
