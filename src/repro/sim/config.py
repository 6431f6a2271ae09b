"""Simulation configuration.

All tunables live here so an experiment is fully described by one
:class:`SimulationConfig` value.  Latency defaults follow published
measurements of Intel Optane DC Persistent Memory relative to DDR4
(reads ~3-4x DRAM latency, writes absorbed by the controller's write
buffer, asymmetric as discussed in the paper's Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["LatencyConfig", "DaemonConfig", "SimulationConfig", "PAGE_SIZE"]

PAGE_SIZE = 4096
"""Bytes per page; the paper's prototype manages base (4 KiB) pages."""


@dataclass(frozen=True)
class LatencyConfig:
    """Nanosecond costs of the primitive operations the simulator charges.

    The PM numbers are *effective* per-access costs, folding both latency
    and bandwidth: Optane DCPMM random reads measure ~3-4x DRAM latency,
    and although individual writes complete in the controller's buffer
    quickly, sustained write bandwidth is ~3x lower than read bandwidth,
    so under load the effective per-access write cost exceeds the read
    cost (the asymmetry Section VII discusses).

    ``page_copy_ns`` is the cost of migrating one 4 KiB page between tiers
    (dominated by the copy plus mapping fixup, a few microseconds in
    Linux's ``migrate_pages()``).  ``hint_fault_ns`` is the cost of one
    software (hint) page fault, the tracking mechanism AutoTiering and
    AutoNUMA pay for and that the paper's Table I calls out as costly.
    ``scan_page_ns`` is the per-page cost of a CLOCK scan step (testing
    and clearing referenced bits in every mapping page table).
    ``poison_page_ns`` is the per-page cost of unmapping a PTE for hint-
    fault tracking — more expensive than a scan step because clearing a
    live translation requires a TLB shootdown.
    ``daemon_wakeup_ns`` is the fixed cost of one daemon wakeup (context
    switch plus cache pollution) — the "excessive context switches" that
    Section III-B warns make too-frequent kpromoted scheduling harmful.
    """

    dram_read_ns: int = 80
    dram_write_ns: int = 80
    pm_read_ns: int = 300
    pm_write_ns: int = 600
    page_copy_ns: int = 3_000
    hint_fault_ns: int = 2_500
    scan_page_ns: int = 120
    poison_page_ns: int = 500
    daemon_wakeup_ns: int = 2_000
    minor_fault_ns: int = 800
    swap_in_ns: int = 100_000
    swap_out_ns: int = 60_000
    migrate_backoff_ns: int = 1_000
    """Base backoff between retries of a transiently failed migration
    (doubles per attempt, kernel ``migrate_pages()``-style)."""
    remote_socket_multiplier: float = 1.5
    """Latency multiplier for accesses that cross a socket interconnect
    (typical QPI/UPI remote-DRAM penalty)."""

    def validated(self) -> "LatencyConfig":
        """Return self after checking every latency is positive."""
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ValueError(f"latency {name} must be positive, got {value}")
        return self


@dataclass(frozen=True)
class DaemonConfig:
    """Wakeup cadence and scan budgets for the background daemons.

    The paper sets both MULTI-CLOCK's ``kpromoted`` and Nimble's promotion
    daemon to a one-second interval with a 1024-page scan budget
    (Section V, "we set the number of page scan to 1024").
    """

    kpromoted_interval_s: float = 1.0
    scan_budget_pages: int = 1024
    kswapd_interval_s: float = 0.5
    hint_scan_interval_s: float = 1.0
    hint_scan_budget_pages: int = 1024

    def validated(self) -> "DaemonConfig":
        if self.kpromoted_interval_s <= 0:
            raise ValueError("kpromoted interval must be positive")
        if self.kswapd_interval_s <= 0:
            raise ValueError("kswapd interval must be positive")
        if self.hint_scan_interval_s <= 0:
            raise ValueError("hint scan interval must be positive")
        if self.scan_budget_pages <= 0 or self.hint_scan_budget_pages <= 0:
            raise ValueError("scan budgets must be positive")
        return self


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of a simulated hybrid-memory machine.

    ``dram_pages``/``pm_pages`` give per-node capacities, one entry per
    NUMA node of that tier.  The paper's testbed is a dual-socket machine
    where DAX-KMEM hot-plugs each socket's PM as its own node; the default
    here is a single-socket (one DRAM node, one PM node) machine scaled
    down so simulations finish quickly.
    """

    dram_pages: tuple[int, ...] = (8192,)
    pm_pages: tuple[int, ...] = (32768,)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    daemons: DaemonConfig = field(default_factory=DaemonConfig)
    seed: int = 42
    stats_window_s: float = 20.0
    swap_pages: int = 1 << 28
    sockets: int = 1
    """NUMA sockets.  Nodes are assigned round-robin within each tier, as
    on the paper's dual-socket testbed (one DRAM node and one DAX-KMEM PM
    node per socket); cross-socket accesses pay the remote multiplier."""

    def validated(self) -> "SimulationConfig":
        """Validate and return self (chainable)."""
        if not self.dram_pages or not self.pm_pages:
            raise ValueError("need at least one DRAM node and one PM node")
        for pages in (*self.dram_pages, *self.pm_pages):
            if pages <= 0:
                raise ValueError(f"node capacity must be positive, got {pages}")
        if self.stats_window_s <= 0:
            raise ValueError("stats window must be positive")
        if self.sockets < 1:
            raise ValueError("need at least one socket")
        if self.latency.remote_socket_multiplier < 1.0:
            raise ValueError("remote accesses cannot be faster than local")
        self.latency.validated()
        self.daemons.validated()
        return self

    @property
    def total_dram_pages(self) -> int:
        return sum(self.dram_pages)

    @property
    def total_pm_pages(self) -> int:
        return sum(self.pm_pages)

    @property
    def total_pages(self) -> int:
        return self.total_dram_pages + self.total_pm_pages

    def with_overrides(self, **changes: Any) -> "SimulationConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes).validated()
