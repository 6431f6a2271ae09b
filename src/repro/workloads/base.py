"""Workload interface: anything that drives memory accesses.

A workload declares its processes and regions against a machine in
:meth:`Workload.setup`, then yields its accesses as column blocks
(:meth:`Workload.blocks`), which the runner in :mod:`repro.run` feeds
to the machine's one driver while it measures virtual time.  Workloads
count *operations* (requests, graph iterations) separately from raw
page touches so throughput matches what the paper reports (ops/sec for
YCSB, time per trial for GAPBS).
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.machine import AccessBlock, Machine

__all__ = ["AccessBlock", "Workload"]


class Workload(abc.ABC):
    """Base class for every benchmark driver."""

    name: str = "workload"

    #: True when this workload's stream marks operation completions with
    #: ``op_boundary``.  The runner uses it to keep a phase that
    #: completes zero operations labelled as a real (zero-op) result
    #: instead of falling back to accesses/s; raw page traces leave it
    #: False and rely on markers observed in the stream.
    marks_op_boundaries: bool = False

    @abc.abstractmethod
    def setup(self, machine: Machine) -> None:
        """Create processes and map regions; called once before the stream."""

    @abc.abstractmethod
    def blocks(self) -> Iterator[AccessBlock]:
        """The access stream as column blocks, for :meth:`Machine.touch_batch`.

        ``setup`` has been called already.  A block's ``lines`` column
        is how many cache lines each access touches within its page (a
        1 KiB value read is ~16 lines); the access latency scales with
        it, which is what makes tier placement dominate operation cost
        the way it does on the paper's real machines.
        """

    def footprint_pages(self) -> int:
        """Approximate resident-set target, for configuring machines."""
        return 0
