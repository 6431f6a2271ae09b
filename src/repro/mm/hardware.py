"""Hardware model: memory tiers and their access costs.

Tiers are ordered exactly as in the paper's Section II — from *higher*
(high performance, low capacity: DRAM) to *lower* (low performance, high
capacity: persistent memory).  The model charges per-access latencies
from :class:`~repro.sim.config.LatencyConfig`; Optane's read/write
asymmetry (reads slower than writes at the DIMM interface, because writes
land in the controller buffer) is preserved because the paper's
Discussion section calls it out as relevant to placement decisions.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.sim.config import LatencyConfig

__all__ = ["MemoryTier", "HardwareModel"]


class MemoryTier(enum.IntEnum):
    """Memory tiers ordered from highest- to lowest-performing.

    Lower numeric value = higher tier, so comparisons read naturally:
    ``page.tier > MemoryTier.DRAM`` means "below DRAM".
    """

    DRAM = 0
    PM = 1

    @property
    def is_top(self) -> bool:
        return self is MemoryTier.DRAM

    @property
    def is_bottom(self) -> bool:
        return self is MemoryTier.PM

    def next_lower(self) -> "MemoryTier | None":
        """The tier pages demote to, or None at the bottom."""
        return MemoryTier.PM if self is MemoryTier.DRAM else None

    def next_higher(self) -> "MemoryTier | None":
        """The tier pages promote to, or None at the top."""
        return MemoryTier.DRAM if self is MemoryTier.PM else None


class HardwareModel:
    """Latency oracle for the simulated machine.

    ``read_ns`` and ``write_ns`` are the per-node access latency table,
    indexed by node id (``node_tiers`` gives each node's tier); every
    access path charges from it.  ``read_ns_col`` and ``write_ns_col``
    hold the same values as int64 arrays for column sweeps.
    :meth:`set_tier_scale` rewrites all four in place, so a caller that
    bound them once sees every rescale.
    """

    def __init__(
        self, latency: LatencyConfig, node_tiers: Sequence[MemoryTier] = ()
    ) -> None:
        self._latency = latency.validated()
        # Nominal values, kept so degradation windows can be applied and
        # lifted losslessly (scales never compound).
        self._nominal_ns = {
            (MemoryTier.DRAM, False): latency.dram_read_ns,
            (MemoryTier.DRAM, True): latency.dram_write_ns,
            (MemoryTier.PM, False): latency.pm_read_ns,
            (MemoryTier.PM, True): latency.pm_write_ns,
        }
        self._scale = dict.fromkeys(MemoryTier, 1.0)
        self._node_tiers = tuple(node_tiers)
        self.read_ns = [self.access_ns(tier, False) for tier in self._node_tiers]
        self.write_ns = [self.access_ns(tier, True) for tier in self._node_tiers]
        self.read_ns_col = np.array(self.read_ns, dtype=np.int64)
        self.write_ns_col = np.array(self.write_ns, dtype=np.int64)

    @property
    def latency(self) -> LatencyConfig:
        return self._latency

    def access_ns(self, tier: MemoryTier, is_write: bool) -> int:
        """Latency of one application access to a page in ``tier``."""
        return max(1, int(self._nominal_ns[tier, is_write] * self._scale[tier]))

    def set_tier_scale(self, tier: MemoryTier, multiplier: float) -> None:
        """Scale one tier's access latency (fault-injection degradation).

        Rewrites that tier's nodes in the per-node table in place; 1.0
        restores nominal latency.  Models a PM DIMM falling into a
        thermally-throttled / media-error-retry mode.
        """
        if multiplier <= 0:
            raise ValueError(f"latency multiplier must be positive, got {multiplier}")
        self._scale[tier] = multiplier
        read = self.access_ns(tier, False)
        write = self.access_ns(tier, True)
        for node_id, node_tier in enumerate(self._node_tiers):
            if node_tier is tier:
                self.read_ns[node_id] = self.read_ns_col[node_id] = read
                self.write_ns[node_id] = self.write_ns_col[node_id] = write

    def migrate_ns(self, pages: int = 1) -> int:
        """System cost of migrating ``pages`` pages between tiers."""
        return self._latency.page_copy_ns * pages

    def scan_ns(self, pages: int) -> int:
        """System cost of a CLOCK scan step over ``pages`` pages."""
        return self._latency.scan_page_ns * pages

    def hint_fault_ns(self) -> int:
        """Cost of one software hint page fault (AutoTiering/AutoNUMA)."""
        return self._latency.hint_fault_ns
