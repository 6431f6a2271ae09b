"""Synthetic access-pattern workloads.

Building blocks for tests and the motivation experiments: Zipf-skewed
random access (the shape of most key-value traffic), uniform random
access (weak locality — the case Section V-C1 predicts MULTI-CLOCK will
not help), sequential scans, and a phase-shifting hot-set workload whose
hot region migrates over time (the "Tier friendly pages" of Figure 1).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.machine import AccessBlock, Machine
from repro.mm.address_space import Process
from repro.sim.rng import make_rng
from repro.workloads.base import Workload

__all__ = [
    "ZipfWorkload",
    "UniformWorkload",
    "SequentialScanWorkload",
    "ShiftingHotSetWorkload",
]

_BATCH = 4096


class _SingleProcessWorkload(Workload):
    """Common setup: one process with one anonymous region."""

    # Every access is one operation.
    marks_op_boundaries = True

    def __init__(
        self,
        pages: int,
        ops: int,
        *,
        seed: int = 7,
        write_ratio: float = 0.0,
        lines: int = 8,
    ) -> None:
        if pages <= 0 or ops <= 0:
            raise ValueError("pages and ops must be positive")
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must lie in [0, 1]")
        if lines <= 0:
            raise ValueError("lines must be positive")
        self.pages = pages
        self.ops = ops
        self.write_ratio = write_ratio
        self.lines = lines
        self.seed = seed
        self.process: Process | None = None

    def setup(self, machine: Machine) -> None:
        self.process = machine.create_process(self.name)
        self.process.mmap_anon(0, self.pages)

    def footprint_pages(self) -> int:
        return self.pages

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The machine-independent stream: ``(vpages, writes)`` arrays.

        Deterministic in the constructor arguments alone — no process or
        machine state — which is what lets the sweep pool generate the
        stream once and replay it across many cells
        (:meth:`~repro.machine.Machine.touch_batch_array`).
        :meth:`blocks` are exactly these batches, so both paths see
        identical reference sequences.
        """
        raise NotImplementedError

    def blocks(self) -> Iterator[AccessBlock]:
        process = self.process
        assert process is not None, "setup() must run before blocks()"
        for vpages, writes in self.numeric_batches():
            yield AccessBlock.numeric(process, vpages, writes, self.lines)


class ZipfWorkload(_SingleProcessWorkload):
    """Zipf-distributed page popularity — strong skew, stable hot set."""

    name = "zipf"

    def __init__(
        self,
        pages: int,
        ops: int,
        *,
        alpha: float = 1.1,
        seed: int = 7,
        write_ratio: float = 0.0,
        lines: int = 8,
    ) -> None:
        super().__init__(pages, ops, seed=seed, write_ratio=write_ratio, lines=lines)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng = make_rng(self.seed, f"zipf-{self.pages}-{self.alpha}")
        ranks = np.arange(1, self.pages + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        weights /= weights.sum()
        # Popularity rank -> page id shuffle, so hot pages are scattered.
        page_of_rank = rng.permutation(self.pages)
        emitted = 0
        while emitted < self.ops:
            n = min(_BATCH, self.ops - emitted)
            picks = rng.choice(self.pages, size=n, p=weights)
            vpages = page_of_rank[picks]
            writes = rng.random(n) < self.write_ratio
            yield vpages, writes
            emitted += n


class UniformWorkload(_SingleProcessWorkload):
    """Uniform random access — no locality for a tiering policy to exploit."""

    name = "uniform"

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng = make_rng(self.seed, f"uniform-{self.pages}")
        emitted = 0
        while emitted < self.ops:
            n = min(_BATCH, self.ops - emitted)
            vpages = rng.integers(0, self.pages, size=n)
            writes = rng.random(n) < self.write_ratio
            yield vpages, writes
            emitted += n


class SequentialScanWorkload(_SingleProcessWorkload):
    """Repeated sequential sweeps — the classic LRU-hostile pattern."""

    name = "seqscan"

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng = make_rng(self.seed, "seqscan")
        emitted = 0
        while emitted < self.ops:
            n = min(_BATCH, self.ops - emitted)
            vpages = np.arange(emitted, emitted + n) % self.pages
            # Scalar draws, one per access, to preserve the historical
            # per-access RNG call sequence exactly.
            writes = np.array(
                [rng.random() < self.write_ratio for _ in range(n)], dtype=bool
            )
            yield vpages, writes
            emitted += n


class ShiftingHotSetWorkload(_SingleProcessWorkload):
    """A hot set that relocates periodically — "Tier friendly" pages.

    Pages in the current hot window receive the bulk of accesses; every
    ``phase_ops`` operations the window jumps elsewhere in the footprint,
    so yesterday's hot pages go cold in PM and today's must be promoted —
    the access behaviour Figure 1 motivates dynamic tiering with.
    """

    name = "shifting-hotset"

    def __init__(
        self,
        pages: int,
        ops: int,
        *,
        hot_fraction: float = 0.1,
        hot_access_probability: float = 0.9,
        phase_ops: int = 20_000,
        seed: int = 7,
        write_ratio: float = 0.0,
        lines: int = 8,
    ) -> None:
        super().__init__(pages, ops, seed=seed, write_ratio=write_ratio, lines=lines)
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must lie in (0, 1)")
        if not 0.0 < hot_access_probability <= 1.0:
            raise ValueError("hot_access_probability must lie in (0, 1]")
        if phase_ops <= 0:
            raise ValueError("phase_ops must be positive")
        self.hot_fraction = hot_fraction
        self.hot_access_probability = hot_access_probability
        self.phase_ops = phase_ops

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng = make_rng(self.seed, "shifting-hotset")
        hot_pages = max(1, int(self.pages * self.hot_fraction))
        emitted = 0
        while emitted < self.ops:
            hot_start = int(rng.integers(0, max(1, self.pages - hot_pages)))
            phase = min(self.phase_ops, self.ops - emitted)
            in_hot = rng.random(phase) < self.hot_access_probability
            hot_picks = rng.integers(hot_start, hot_start + hot_pages, size=phase)
            cold_picks = rng.integers(0, self.pages, size=phase)
            vpages = np.where(in_hot, hot_picks, cold_picks)
            writes = rng.random(phase) < self.write_ratio
            yield vpages, writes
            emitted += phase
