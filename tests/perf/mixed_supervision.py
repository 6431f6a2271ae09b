"""A two-process workload whose accesses interleave across processes
and across supervised and unsupervised regions."""

from __future__ import annotations

import numpy as np

from repro.machine import Machine
from repro.workloads.base import AccessBlock, Workload


class MixedSupervisionWorkload(Workload):
    """Two processes, one with a supervised and an unsupervised region and
    one with no supervised region, their accesses interleaved: the driver
    must look regions up for the first and may skip it for the second."""

    name = "mixed-supervision"

    def __init__(self, ops: int, seed: int) -> None:
        self.ops = ops
        self.rng = np.random.default_rng(seed)

    def setup(self, machine: Machine) -> None:
        self.mixed = machine.create_process("mixed")
        self.mixed.mmap_anon(0, 300, supervised=True)
        self.mixed.mmap_anon(1000, 300)
        self.plain = machine.create_process("plain")
        self.plain.mmap_anon(0, 300)

    def blocks(self):
        picks = self.rng.integers(0, 3, size=self.ops)
        vpage = self.rng.zipf(1.3, size=self.ops) % 300 + np.where(picks == 2, 1000, 0)
        write = self.rng.random(self.ops) < 0.3
        plain = picks == 0
        cuts = (np.flatnonzero(plain[1:] != plain[:-1]) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, self.ops]):
            process = self.plain if plain[start] else self.mixed
            yield AccessBlock.numeric(process, vpage[start:stop], write[start:stop], 1)
