"""A scan-capable, clustered-index key-value store.

Section V-B: "YCSB's workload E makes use of SCAN operations that may or
may not be implemented by the different back-end key-value stores.
Memcached does not implement SCAN operations, making workload E
non-operational."  The paper therefore reports no Workload E numbers.

This store is the reproduction's *extension* that closes that gap: a
clustered index (think LSM-less B-tree leaf chain) keeping records in
key order, so SCAN is a sequential walk of adjacent data pages.  Plugging
it into :class:`~repro.workloads.ycsb.YCSBSession` makes workload E
operational — sequential range reads over a footprint larger than DRAM,
the access pattern tiering policies handle worst.

The layout interface mirrors :class:`SlabKVStore`, so
:func:`~repro.workloads.kvstore.touch_columns` lays out operations on
either store: an operation first probes the index (root + leaf, the two
levels a few-thousand-key tree needs), then touches the clustered data
pages.  As there, the layout is written once
(:meth:`SortedKVStore.probe_vpages`, :meth:`SortedKVStore.data_vpage`)
for ints and numpy arrays alike.
"""

from __future__ import annotations

import copy
from typing import Iterable

import numpy as np

from repro.sim.config import PAGE_SIZE
from repro.workloads.kvstore import CACHE_LINE

__all__ = ["SortedKVStore"]

_KEYS_PER_INDEX_PAGE = PAGE_SIZE // 16  # key + child pointer per entry


class SortedKVStore:
    """Records clustered by key; SCAN walks consecutive pages."""

    #: Index pages an operation probes before its record: root, then leaf.
    probes = 2
    #: SCAN walks the clustered data pages.
    supports_scan = True

    def __init__(
        self,
        *,
        value_size: int = 1024,
        index_base: int = 0,
        data_base: int = 1 << 20,
        overhead: int = 40,
    ) -> None:
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        chunk = value_size + overhead
        if chunk > PAGE_SIZE:
            raise ValueError("multi-page records are out of scope")
        self.value_size = value_size
        self.chunk_size = chunk
        self.items_per_page = PAGE_SIZE // chunk
        self.value_lines = max(1, chunk // CACHE_LINE)
        #: Lines a scan reads from each data page it walks.
        self.scan_lines = min(self.items_per_page * self.value_lines, 64)
        self.index_base = index_base
        self.data_base = data_base
        self._keys: set[int] = set()
        self.max_key = -1

    # -- layout ------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return len(self._keys)

    @property
    def hash_base(self) -> int:
        """Metadata-region base (interface parity with the slab store)."""
        return self.index_base

    def hash_pages(self, n_records: int) -> int:
        """Index pages for ``n_records`` keys (named for interface parity
        with the slab store: this is the non-data metadata region)."""
        leaves = max(1, (n_records - 1) // _KEYS_PER_INDEX_PAGE + 1)
        return leaves + 1  # plus the root

    def footprint_pages(self, n_records: int) -> int:
        data = (n_records - 1) // self.items_per_page + 1 if n_records else 0
        return data + self.hash_pages(max(n_records, 1))

    def location(self, key: int) -> int | None:
        """Clustered position: dense keys sit at their own rank."""
        return key if key in self._keys else None

    def locations(self, keys: np.ndarray) -> np.ndarray:
        """Clustered positions of ``keys``, every one of which is present."""
        return keys

    def copy(self) -> "SortedKVStore":
        """An independent store with this one's layout."""
        clone = copy.copy(self)
        clone._keys = set(self._keys)
        return clone

    def add_keys(self, keys: Iterable[int]) -> None:
        """Record absent ``keys``."""
        keys = list(keys)
        self._keys.update(keys)
        self.max_key = max([self.max_key, *keys])

    def data_vpage(self, key):
        """Data page of ``key`` (an int or an array of them)."""
        return self.data_base + key // self.items_per_page

    def probe_vpages(self, key, n_records) -> tuple:
        """Root then leaf page of the two-level index descent to ``key``
        (``n_records`` is unused: the tree's shape follows the keys)."""
        return (self.index_base, self.index_base + 1 + key // _KEYS_PER_INDEX_PAGE)
