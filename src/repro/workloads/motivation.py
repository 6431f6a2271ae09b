"""Section II-A motivation workloads (Figures 1 and 2).

The paper traces sampled pages in four benchmarks — RUBiS (OLTP),
SPECpower (OLTP at 80% load), DaCapo xalan (XML→HTML) and DaCapo
lusearch (Lucene search) — and finds three page populations:

* **DRAM-friendly** pages: "frequent accesses throughout the execution
  period";
* **rare** pages: "very infrequent accesses over the entire execution";
* **Tier-friendly** pages: "bimodal access behavior whereby for some time
  segments they get accessed at a much higher rate than other time
  segments".

We reproduce those populations synthetically: each profile fixes the mix
of the three classes and their per-segment rates, chosen to echo the
qualitative texture of the corresponding heatmap panel (the figures only
establish that such pages exist and that multiple accesses predict future
accesses — both of which are properties of the class structure, not of
the specific applications).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.machine import AccessBlock, Machine
from repro.mm.address_space import Process
from repro.sim.rng import make_rng
from repro.workloads.base import Workload

__all__ = ["MotivationProfile", "MotivationWorkload", "PROFILES"]


@dataclass(frozen=True)
class MotivationProfile:
    """Mix and rates of the three page populations."""

    name: str
    dram_friendly_fraction: float
    tier_friendly_fraction: float
    hot_rate: float
    """Relative access weight of a DRAM-friendly page in any segment."""
    burst_rate: float
    """Weight of a Tier-friendly page during one of its active segments."""
    burst_probability: float
    """Chance a Tier-friendly page is active in a given segment."""
    rare_rate: float = 0.02

    def __post_init__(self) -> None:
        if self.dram_friendly_fraction + self.tier_friendly_fraction >= 1.0:
            raise ValueError("class fractions must leave room for rare pages")


PROFILES: dict[str, MotivationProfile] = {
    # OLTP with a modest steady hot set and many bursty session buffers.
    "rubis": MotivationProfile("rubis", 0.10, 0.30, 8.0, 10.0, 0.35),
    # High, steady transaction load: a large stable hot set.
    "specpower": MotivationProfile("specpower", 0.25, 0.15, 10.0, 8.0, 0.30),
    # Phase-structured transform: most activity is bursty buffers.
    "xalan": MotivationProfile("xalan", 0.05, 0.45, 6.0, 12.0, 0.40),
    # Index search: small hot index core, scattered cold corpus.
    "lusearch": MotivationProfile("lusearch", 0.08, 0.20, 9.0, 9.0, 0.25),
}


class MotivationWorkload(Workload):
    """Segmented access generator over the three page populations."""

    marks_op_boundaries = True

    def __init__(
        self,
        profile: MotivationProfile | str,
        *,
        pages: int = 2000,
        segments: int = 24,
        ops_per_segment: int = 10_000,
        seed: int = 11,
        lines: int = 8,
    ) -> None:
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if pages <= 0 or segments <= 0 or ops_per_segment <= 0:
            raise ValueError("pages, segments and ops_per_segment must be positive")
        self.profile = profile
        self.pages = pages
        self.segments = segments
        self.ops_per_segment = ops_per_segment
        self.seed = seed
        self.lines = lines
        self.process: Process | None = None
        self.name = f"motivation-{profile.name}"
        n_hot = int(pages * profile.dram_friendly_fraction)
        n_tier = int(pages * profile.tier_friendly_fraction)
        rng = make_rng(seed, f"motivation-{profile.name}-classes")
        ids = rng.permutation(pages)
        self.dram_friendly = np.sort(ids[:n_hot])
        self.tier_friendly = np.sort(ids[n_hot : n_hot + n_tier])
        self.rare = np.sort(ids[n_hot + n_tier :])

    def footprint_pages(self) -> int:
        return self.pages

    def setup(self, machine: Machine) -> None:
        self.process = machine.create_process(self.name)
        self.process.mmap_anon(0, self.pages)

    def _segment_weights(self, rng: np.random.Generator, segment: int) -> np.ndarray:
        profile = self.profile
        weights = np.full(self.pages, profile.rare_rate, dtype=np.float64)
        weights[self.dram_friendly] = profile.hot_rate
        bursting = rng.random(len(self.tier_friendly)) < profile.burst_probability
        weights[self.tier_friendly[bursting]] = profile.burst_rate
        weights[self.tier_friendly[~bursting]] = profile.rare_rate
        return weights / weights.sum()

    def _segment_picks(self) -> Iterator[np.ndarray]:
        """Each segment's accessed pages, in order."""
        rng = make_rng(self.seed, f"motivation-{self.profile.name}-trace")
        for segment in range(self.segments):
            weights = self._segment_weights(rng, segment)
            yield rng.choice(self.pages, size=self.ops_per_segment, p=weights)

    def trace(self) -> Iterator[tuple[int, int]]:
        """Machine-free ``(segment, vpage)`` stream for pure analysis."""
        for segment, picks in enumerate(self._segment_picks()):
            for vpage in picks.tolist():
                yield segment, vpage

    def blocks(self) -> Iterator[AccessBlock]:
        process = self.process
        assert process is not None, "setup() must run before blocks()"
        for picks in self._segment_picks():
            yield AccessBlock.numeric(process, picks, np.zeros(len(picks), bool), self.lines)
