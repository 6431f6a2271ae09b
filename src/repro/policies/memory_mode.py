"""Persistent memory in Memory-mode (2LM), hardware DRAM caching.

Section II-B: "DRAM is directly mapped as the cache for data stored in
PM ... The system recognizes only the PM as memory", so "the available
DRAM capacity is unusable by the operating system".  We model that with:

* allocation restricted to PM nodes (the OS never sees DRAM frames);
* a page-granular direct-mapped DRAM cache in front of every access —
  a hit costs DRAM latency, a miss costs the PM access plus the cache
  fill, plus a PM write-back when the evicted line was dirty.

Cache fills are hardware operations, orders of magnitude cheaper than a
software ``migrate_pages()``, which is why Memory-mode is competitive
with software tiering (Fig. 7) despite having no placement intelligence.
Three costs keep it honest, as on real 2LM hardware:

* the cache is *sectored* — a miss fills only the touched sector, so a
  page's residency is earned sector by sector (the near-memory cache
  tracks sub-page lines, not whole pages);
* the tags live in DRAM, so every access pays a metadata probe on top of
  the data access, and fills/dirty write-backs pay metadata updates;
* direct mapping means conflict evictions, and dirty sectors flush to PM.
"""

from __future__ import annotations

from repro.mm.alloc import PageAllocator
from repro.mm.page import Page
from repro.mm.system import MemorySystem
from repro.policies.base import PolicyFeatures, TieringPolicy, register_policy

__all__ = ["MemoryModePolicy", "SECTORS_PER_PAGE", "TAG_PROBE_NS"]

SECTORS_PER_PAGE = 4
"""Cache sectors per 4 KiB page (1 KiB sectors)."""

TAG_PROBE_NS = 15
"""DRAM-resident tag/metadata probe charged on every access."""

HIT_OVERHEAD_NS = 20
"""Per-line controller overhead on a cache hit: measured 2LM hit latency
runs ~25% above bare DRAM (the request traverses the near-memory cache
controller and its DRAM-resident tags)."""

MISS_OVERHEAD_NS = 90
"""Per-line overhead on a miss beyond the raw PM access: tag probe miss,
fill scheduling and metadata update in the memory controller."""

_LINES_PER_PAGE = 64
_LINES_PER_SECTOR = _LINES_PER_PAGE // SECTORS_PER_PAGE
_ALL_SECTORS = (1 << SECTORS_PER_PAGE) - 1


@register_policy("memory-mode")
class MemoryModePolicy(TieringPolicy):
    """DRAM as a direct-mapped page cache; PM is the only visible memory."""

    features = PolicyFeatures(
        tiering="Memory-mode",
        page_access_tracking="Hardware (cache)",
        selection_promotion="Direct-mapped cache fill",
        selection_demotion="Cache eviction",
        numa_aware="Per-socket cache",
        space_overhead="N/A",
        generality="All",
        evaluation="PM",
        usability_limitation="DRAM capacity hidden from OS",
        key_insight="System-supported DRAM caching",
    )

    def __init__(self, system: MemorySystem) -> None:
        super().__init__(system)
        pm_nodes = system.pm_nodes()
        if not pm_nodes:
            raise ValueError("Memory-mode needs at least one PM node")
        # The OS only recognises PM as memory.
        system.allocator = PageAllocator(pm_nodes)
        self._cache_slots = max(1, system.config.total_dram_pages)
        # The cache's DRAM latency is any DRAM node's entry in the live
        # per-node table (a tier is rescaled as a whole).
        self._dram_node = system.dram_nodes()[0].node_id
        self._tags: dict[int, int] = {}
        self._valid: dict[int, int] = {}  # slot -> sector presence bitmap
        self._dirty: dict[int, int] = {}  # slot -> dirty sector bitmap
        self._c_hits = system.stats.counter("memcache.hits")
        self._c_misses = system.stats.counter("memcache.misses")
        self._c_writebacks = system.stats.counter("memcache.writebacks")

    @property
    def cache_slots(self) -> int:
        return self._cache_slots

    def charge_access(self, page: Page, is_write: bool, lines: int = 1) -> int:
        """Latency through the sectored direct-mapped near-memory cache.

        An access spanning ``lines`` cache lines covers
        ``ceil(lines / lines-per-sector)`` sectors; each sector is served
        from DRAM when valid or from PM (plus the fill) when not.  Both
        tiers are priced from the live per-node latency table, so a PM
        slowdown window reaches misses and write-backs.
        """
        hardware = self.system.hardware
        read_ns, write_ns = hardware.read_ns, hardware.write_ns
        # The page lives on a PM node: Memory-mode allocates nowhere else.
        pm = page.node_id
        dram = self._dram_node
        slot = page.pfn % self._cache_slots
        resident = self._tags.get(slot)
        cost = TAG_PROBE_NS
        if resident != page.pfn:
            # Conflict (or cold) eviction: dirty sectors flush to PM.
            if resident is not None and self._dirty.get(slot, 0):
                cost += write_ns[pm]
                self._c_writebacks.n += 1
            self._tags[slot] = page.pfn
            self._valid[slot] = 0
            self._dirty[slot] = 0
        sectors = max(1, (lines + _LINES_PER_SECTOR - 1) // _LINES_PER_SECTOR)
        lines_per_sector = max(1, lines // sectors)
        valid = self._valid.get(slot, 0)
        ns = write_ns if is_write else read_ns
        dram_ns = ns[dram]
        pm_ns = ns[pm]
        for sector in range(sectors):
            mask = 1 << (sector % SECTORS_PER_PAGE)
            if valid & mask:
                self._c_hits.n += 1
                cost += lines_per_sector * (dram_ns + HIT_OVERHEAD_NS)
            else:
                self._c_misses.n += 1
                cost += lines_per_sector * (pm_ns + MISS_OVERHEAD_NS)
                cost += write_ns[dram]  # sector fill + tag update
                valid |= mask
            if is_write:
                self._dirty[slot] = self._dirty.get(slot, 0) | mask
        self._valid[slot] = valid
        return cost

    def hit_rate(self) -> float:
        """Fraction of accesses served from the DRAM cache so far."""
        hits = self.system.stats.get("memcache.hits")
        misses = self.system.stats.get("memcache.misses")
        total = hits + misses
        return hits / total if total else 0.0
