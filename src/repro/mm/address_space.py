"""Virtual address spaces: processes and their mmap regions.

Workloads address memory by ``(process, virtual page)``.  A
:class:`MemoryRegion` declares a contiguous run of virtual pages and
whether accesses to it are *supervised* (system calls — the OS sees each
access and can call ``mark_page_accessed()`` inline) or *unsupervised*
(plain loads/stores through an ``mmap`` mapping, visible only through the
PTE accessed bit) — the two access classes of Section III-A.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from repro.mm.page_table import PageTable

__all__ = ["MemoryRegion", "Process"]

_pids = itertools.count(1)


@dataclass(frozen=True)
class MemoryRegion:
    """A VMA: ``n_pages`` virtual pages starting at ``start_vpage``."""

    start_vpage: int
    n_pages: int
    is_anon: bool = True
    supervised: bool = False
    mlocked: bool = False

    def __post_init__(self) -> None:
        if self.n_pages <= 0:
            raise ValueError("region must span at least one page")
        if self.start_vpage < 0:
            raise ValueError("region start must be non-negative")

    @property
    def end_vpage(self) -> int:
        """One past the last vpage, half-open like kernel VMAs."""
        return self.start_vpage + self.n_pages

    def contains(self, vpage: int) -> bool:
        return self.start_vpage <= vpage < self.end_vpage


class Process:
    """A simulated process: a page table plus its VMA list.

    ``home_socket`` is where the process's threads run; accesses to
    memory on other sockets pay the remote-NUMA latency multiplier.
    """

    def __init__(self, name: str = "", home_socket: int = 0) -> None:
        if home_socket < 0:
            raise ValueError("home_socket must be non-negative")
        self.pid = next(_pids)
        self.name = name or f"proc-{self.pid}"
        self.home_socket = home_socket
        self.page_table = PageTable(self.pid)
        #: in start order, as the page table's region lists.
        self._regions: list[MemoryRegion] = []
        #: How many regions are supervised; while 0, an access never
        #: needs its region looked up (only supervision is read there).
        self.supervised_regions = 0

    @property
    def regions(self) -> list[MemoryRegion]:
        return list(self._regions)

    def mmap(self, region: MemoryRegion) -> MemoryRegion:
        """Register a VMA; overlapping regions are rejected."""
        idx = bisect.bisect_left(self.page_table._start_list, region.start_vpage)
        before = self._regions[idx - 1] if idx > 0 else None
        after = self._regions[idx] if idx < len(self._regions) else None
        if before is not None and before.end_vpage > region.start_vpage:
            raise ValueError(f"region {region} overlaps {before}")
        if after is not None and region.end_vpage > after.start_vpage:
            raise ValueError(f"region {region} overlaps {after}")
        self._regions.insert(idx, region)
        self.supervised_regions += region.supervised
        self.page_table.add_region(region.start_vpage, region.n_pages, region.supervised)
        return region

    def mmap_anon(
        self, start_vpage: int, n_pages: int, *, supervised: bool = False
    ) -> MemoryRegion:
        """Convenience: map an anonymous region."""
        return self.mmap(MemoryRegion(start_vpage, n_pages, is_anon=True, supervised=supervised))

    def mmap_file(
        self, start_vpage: int, n_pages: int, *, supervised: bool = False
    ) -> MemoryRegion:
        """Convenience: map a file-backed region."""
        return self.mmap(MemoryRegion(start_vpage, n_pages, is_anon=False, supervised=supervised))

    def region_for(self, vpage: int) -> MemoryRegion:
        """The VMA covering ``vpage``; raises if unmapped (a SIGSEGV)."""
        idx = bisect.bisect_right(self.page_table._start_list, vpage) - 1
        if idx >= 0 and self._regions[idx].contains(vpage):
            return self._regions[idx]
        raise LookupError(f"pid {self.pid}: vpage {vpage} hits no mapped region")

    def mapped_vpages(self) -> int:
        """Pages currently resident (mapped in the page table)."""
        return len(self.page_table)

    def footprint_pages(self) -> int:
        """Total virtual pages declared across all regions."""
        return sum(region.n_pages for region in self._regions)

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, name={self.name!r}, regions={len(self._regions)})"
