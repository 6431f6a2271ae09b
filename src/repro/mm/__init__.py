"""Memory-management substrate: the simulator's kernel MM layer.

Everything a tiering policy needs to stand on: pages and flags, per-node
LRU vectors (including the paper's promote lists), NUMA nodes tagged by
tier, watermarks, the allocator, the migration engine, process page
tables, the backing store, and the generic PFRA scan machinery.
"""

from repro.mm.address_space import MemoryRegion, Process
from repro.mm.alloc import AllocationResult, PageAllocator
from repro.mm.flags import PageFlags
from repro.mm.hardware import HardwareModel, MemoryTier
from repro.mm.lruvec import ListKind, LruList, LruVec
from repro.mm.migrate import MigrationEngine, MigrationOutcome
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.page_table import PageTable
from repro.mm.swap import BackingStore
from repro.mm.system import MemorySystem, OutOfMemoryError
from repro.mm.watermarks import PressureLevel, Watermarks, compute_watermarks

__all__ = [
    "MemoryRegion",
    "Process",
    "AllocationResult",
    "PageAllocator",
    "PageFlags",
    "HardwareModel",
    "MemoryTier",
    "ListKind",
    "LruList",
    "LruVec",
    "MigrationEngine",
    "MigrationOutcome",
    "NumaNode",
    "Page",
    "PageTable",
    "BackingStore",
    "MemorySystem",
    "OutOfMemoryError",
    "PressureLevel",
    "Watermarks",
    "compute_watermarks",
]
