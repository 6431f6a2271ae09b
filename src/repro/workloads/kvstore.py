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

Operations translate keys to page touches.  The layout itself — which
bucket page and which slab page a key lives on — is written once, in
:meth:`SlabKVStore.hash_vpage` and :meth:`SlabKVStore.data_vpage`, as
arithmetic that takes Python ints (the per-operation methods below) or
numpy arrays (the YCSB emitter, which lays out a whole batch of
operations at a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.sim.config import PAGE_SIZE

__all__ = ["PageTouch", "SlabKVStore", "CACHE_LINE"]

CACHE_LINE = 64

_BUCKETS_PER_PAGE = PAGE_SIZE // 8


@dataclass(frozen=True)
class PageTouch:
    """One page-granular touch an operation performs."""

    vpage: int
    is_write: bool
    lines: int


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

    # -- operations -----------------------------------------------------------

    def insert(self, key: int) -> list[PageTouch]:
        """SET of a new key: probe the hash bucket, write the record."""
        if key in self._locations:
            return self.update(key)
        slot = self._next_slot
        self.add_keys((key,))
        return [
            PageTouch(self.hash_vpage(key, len(self._locations)), is_write=True, lines=1),
            PageTouch(self.data_vpage(slot), is_write=True, lines=self.value_lines),
        ]

    def read(self, key: int) -> list[PageTouch]:
        """GET: probe the bucket, read the record."""
        slot = self._require(key)
        return [
            PageTouch(self.hash_vpage(key, len(self._locations)), is_write=False, lines=1),
            PageTouch(self.data_vpage(slot), is_write=False, lines=self.value_lines),
        ]

    def update(self, key: int) -> list[PageTouch]:
        """SET of an existing key: probe, then overwrite in place."""
        slot = self._require(key)
        return [
            PageTouch(self.hash_vpage(key, len(self._locations)), is_write=False, lines=1),
            PageTouch(self.data_vpage(slot), is_write=True, lines=self.value_lines),
        ]

    def read_modify_write(self, key: int) -> list[PageTouch]:
        """YCSB workload F's composite operation."""
        return self.read(key) + self.update(key)

    def _require(self, key: int) -> int:
        slot = self._locations.get(key)
        if slot is None:
            raise KeyError(f"key {key} was never inserted")
        return slot
