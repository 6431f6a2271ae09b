"""A test-only per-operation YCSB emitter: the obviously-correct reference.

This is the YCSB stream as it was before the phases laid their touches
out as columns.  Each operation asks a scalar store for its list of page
touches, picks its key with one scalar zipfian rank, and every hash or
index probe takes one scalar ``rng.random()`` draw the moment it is
reached.  The stores here are private copies of the per-operation store
code, so the columnar emitter shares no layout arithmetic with its
reference.  Touches come out as ``(vpage, is_write, lines, op_boundary)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.sim.config import PAGE_SIZE
from repro.sim.rng import make_rng
from repro.workloads.ycsb import MAX_SCAN_LENGTH, WORKLOAD_MIXES, ZIPFIAN_CONSTANT

CACHE_LINE = 64
_KEYS_PER_INDEX_PAGE = PAGE_SIZE // 16

Touch = tuple[int, bool, int]


class SlabStore:
    """Slab layout: a hash-bucket probe, then the record's slab page."""

    def __init__(self, value_size: int) -> None:
        self.chunk_size = value_size + 56
        self.items_per_page = PAGE_SIZE // self.chunk_size
        self.hash_base = 0
        self.data_base = 1 << 20
        self._locations: dict[int, int] = {}
        self._next_slot = 0

    def layout(self) -> tuple:
        return self._locations, self._next_slot

    def _value_lines(self) -> int:
        return max(1, self.chunk_size // CACHE_LINE)

    def _data_vpage(self, slot: int) -> int:
        return self.data_base + slot // self.items_per_page

    def _hash_vpage(self, key: int) -> int:
        n_records = len(self._locations)
        return self.hash_base + (key * 2654435761 % (1 << 32)) % max(
            1, n_records or 1
        ) // (PAGE_SIZE // 8)

    def insert(self, key: int) -> list[Touch]:
        if key in self._locations:
            return self.update(key)
        slot = self._next_slot
        self._next_slot += 1
        self._locations[key] = slot
        return [
            (self._hash_vpage(key), True, 1),
            (self._data_vpage(slot), True, self._value_lines()),
        ]

    def read(self, key: int) -> list[Touch]:
        slot = self._locations[key]
        return [
            (self._hash_vpage(key), False, 1),
            (self._data_vpage(slot), False, self._value_lines()),
        ]

    def update(self, key: int) -> list[Touch]:
        slot = self._locations[key]
        return [
            (self._hash_vpage(key), False, 1),
            (self._data_vpage(slot), True, self._value_lines()),
        ]

    def read_modify_write(self, key: int) -> list[Touch]:
        return self.read(key) + self.update(key)


class SortedStore:
    """Clustered layout: root and leaf index probes, then data pages."""

    def __init__(self, value_size: int) -> None:
        self.chunk_size = value_size + 40
        self.items_per_page = PAGE_SIZE // self.chunk_size
        self.index_base = 0
        self.data_base = 1 << 20
        self._keys: set[int] = set()
        self._max_key = -1

    def layout(self) -> tuple:
        return self._keys, self._max_key

    def _value_lines(self) -> int:
        return max(1, self.chunk_size // CACHE_LINE)

    def _data_vpage(self, key: int) -> int:
        return self.data_base + key // self.items_per_page

    def _index_touches(self, key: int, is_write: bool = False) -> list[Touch]:
        leaf = 1 + key // _KEYS_PER_INDEX_PAGE
        return [(self.index_base, False, 1), (self.index_base + leaf, is_write, 1)]

    def insert(self, key: int) -> list[Touch]:
        if key in self._keys:
            return self.update(key)
        self._keys.add(key)
        self._max_key = max(self._max_key, key)
        return self._index_touches(key, True) + [
            (self._data_vpage(key), True, self._value_lines())
        ]

    def read(self, key: int) -> list[Touch]:
        assert key in self._keys
        return self._index_touches(key) + [
            (self._data_vpage(key), False, self._value_lines())
        ]

    def update(self, key: int) -> list[Touch]:
        assert key in self._keys
        return self._index_touches(key) + [
            (self._data_vpage(key), True, self._value_lines())
        ]

    def read_modify_write(self, key: int) -> list[Touch]:
        return self.read(key) + self.update(key)

    def scan(self, start_key: int, count: int) -> list[Touch]:
        assert start_key in self._keys
        end_key = min(start_key + count - 1, self._max_key)
        touches = self._index_touches(start_key)
        lines = min(self.items_per_page * self._value_lines(), 64)
        for vpage in range(self._data_vpage(start_key), self._data_vpage(end_key) + 1):
            touches.append((vpage, False, lines))
        return touches


class IncrementalZeta:
    """sum_{i=1..n} i^-theta, grown one term at a time."""

    def __init__(self, theta: float) -> None:
        self.theta = theta
        self._n = 0
        self._value = 0.0

    def upto(self, n: int) -> float:
        while self._n < n:
            self._n += 1
            self._value += self._n ** (-self.theta)
        return self._value


class OracleSession:
    """A YCSB session's key and layout state, emitting one op at a time."""

    def __init__(
        self,
        n_records: int,
        *,
        value_size: int,
        seed: int,
        insert_headroom: float,
        hash_cache_hit_rate: float,
        backend: str,
    ) -> None:
        self.n_records = n_records
        self.seed = seed
        self.hash_cache_hit_rate = hash_cache_hit_rate
        self.store = (SlabStore if backend == "memcached" else SortedStore)(value_size)
        self.max_records = int(n_records * (1.0 + insert_headroom))
        self.next_key = 0
        rng = make_rng(seed, "ycsb-scramble")
        self._key_of_rank = rng.permutation(self.max_records)
        self.zeta = IncrementalZeta(ZIPFIAN_CONSTANT)

    def load(self) -> Iterator[tuple]:
        for key in range(self.n_records):
            touches = self.store.insert(key)
            self.next_key = key + 1
            last = len(touches) - 1
            for i, (vpage, is_write, lines) in enumerate(touches):
                yield vpage, is_write, lines, i == last

    def phase(self, label: str, ops: int, batch: int = 2048) -> Iterator[tuple]:
        store = self.store
        rng = make_rng(self.seed, f"ycsb-{label}")
        mix = WORKLOAD_MIXES[label]
        thresholds = np.cumsum([mix.read, mix.update, mix.insert, mix.rmw, mix.scan])
        emitted = 0
        while emitted < ops:
            size = min(batch, ops - emitted)
            op_draw = rng.random(size)
            rank_draw = rng.random(size)
            for i in range(size):
                touches = self._one_op(rng, mix, op_draw[i], rank_draw[i], thresholds)
                last = len(touches) - 1
                for j, (vpage, is_write, lines) in enumerate(touches):
                    is_probe = vpage < store.data_base
                    if is_probe and j != last and rng.random() < self.hash_cache_hit_rate:
                        continue  # bucket served from the CPU cache
                    yield vpage, is_write, lines, j == last
            emitted += size

    def _one_op(self, rng, mix, op_p: float, rank_p: float, thresholds) -> list:
        store = self.store
        if op_p < thresholds[0]:
            return store.read(self._pick_key(mix, rank_p))
        if op_p < thresholds[1]:
            return store.update(self._pick_key(mix, rank_p))
        if op_p < thresholds[2]:
            key = self.next_key
            if key >= self.max_records:
                return store.update(self.next_key - 1)
            self.next_key = key + 1
            return store.insert(key)
        if op_p < thresholds[3]:
            return store.read_modify_write(self._pick_key(mix, rank_p))
        length = int(rng.integers(1, MAX_SCAN_LENGTH + 1))
        return store.scan(self._pick_key(mix, rank_p), length)

    def _pick_key(self, mix, rank_p: float) -> int:
        n = self.next_key
        rank = self._zipf_rank(rank_p, n)
        if mix.distribution == "latest":
            return n - 1 - rank
        return int(self._key_of_rank[rank] % n)

    def _zipf_rank(self, p: float, n: int) -> int:
        theta = ZIPFIAN_CONSTANT
        zetan = self.zeta.upto(n)
        zeta2 = 1.0 + 0.5 ** theta
        if n <= 2:
            return 0 if p * zetan < 1.0 else min(1, n - 1)
        alpha = 1.0 / (1.0 - theta)
        eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta2 / zetan)
        uz = p * zetan
        if uz < 1.0:
            return 0
        if uz < zeta2:
            return 1
        return int(n * (eta * p - eta + 1) ** alpha) % n
