"""Workload interface: anything that drives memory accesses.

A workload declares its processes and regions against a machine in
:meth:`Workload.setup`, then yields a stream of page references: either
:class:`PageAccess` objects (:meth:`Workload.accesses`) or column
blocks (:meth:`Workload.blocks`); each is defined from the other by
default, so a workload overrides one.  The runner in :mod:`repro.run`
feeds the blocks to the machine's one driver and measures virtual
time.  Workloads count *operations* (requests, graph iterations)
separately from raw page touches so throughput matches what the paper
reports (ops/sec for YCSB, time per trial for GAPBS).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.machine import AccessBlock, Machine
from repro.mm.address_space import Process

__all__ = ["AccessBlock", "PageAccess", "Workload"]

#: Most accesses :meth:`Workload.blocks` packs into one block.
_PACK = 4096


@dataclass(frozen=True, slots=True)
class PageAccess:
    """One page reference emitted by a workload.

    ``lines`` is how many cache lines the operation touches within the
    page (a 1 KiB value read is ~16 lines); the access latency scales
    with it, which is what makes tier placement dominate operation cost
    the way it does on the paper's real machines.
    """

    process: Process
    vpage: int
    is_write: bool = False
    op_boundary: bool = False
    lines: int = 1


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

    def accesses(self) -> Iterator[PageAccess]:
        """The access stream as objects.  ``setup`` has been called already.

        By default the unpacked :meth:`blocks`.  A block with a positive
        ``live`` ends where the driver would end it — after one of its
        first ``live`` positions, once the page table's size or unmap
        generation moved — so a per-access consumer that touches each
        object before asking for the next sees the driver's stream.
        """
        if type(self).blocks is Workload.blocks:
            raise NotImplementedError(f"{type(self).__name__} defines no stream")
        for block in self.blocks():
            process = block.process
            table = process.page_table
            size, gen = len(table), table._unmap_gen
            rows = zip(
                block.vpage.tolist(), block.write.tolist(),
                block.op_boundary.tolist(), block.lines.tolist(),
            )
            for i, (vpage, write, boundary, lines) in enumerate(rows):
                yield PageAccess(process, vpage, write, boundary, lines)
                if i < block.live and (
                    len(table) != size or table._unmap_gen != gen
                ):
                    block.done = i + 1
                    break

    def blocks(self) -> Iterator[AccessBlock]:
        """The access stream as column blocks, for :meth:`Machine.touch_batch`.

        By default :meth:`accesses` packed into per-process blocks of up
        to 4096 accesses.  Packing reads the stream ahead of the driver,
        so a stream that depends on machine state as it is driven must
        define its blocks itself.
        """
        if type(self).accesses is Workload.accesses:
            raise NotImplementedError(f"{type(self).__name__} defines no stream")
        process = None
        rows: list[tuple[int, bool, int, bool]] = []
        for access in self.accesses():
            if access.process is not process or len(rows) == _PACK:
                if rows:
                    yield _packed(process, rows)
                    rows = []
                process = access.process
            rows.append((access.vpage, access.is_write, access.lines, access.op_boundary))
        if rows:
            yield _packed(process, rows)

    def footprint_pages(self) -> int:
        """Approximate resident-set target, for configuring machines."""
        return 0


def _packed(process: Process, rows: list[tuple[int, bool, int, bool]]) -> AccessBlock:
    vpage, write, lines, boundary = zip(*rows)
    return AccessBlock(
        process,
        np.array(vpage, dtype=np.int64),
        np.array(write, dtype=bool),
        np.array(lines, dtype=np.int64),
        np.array(boundary, dtype=bool),
    )
