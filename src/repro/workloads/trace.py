"""Access-trace recording and replay.

The reproduction is trace driven at heart, so traces are first-class: any
workload can be recorded while it runs (:class:`TraceRecorder`) and the
resulting file replayed later (:class:`TraceReplayWorkload`) against any
policy or configuration.  This is how one captures an expensive workload
once (a long GAPBS kernel, a full YCSB sequence) and sweeps policies over
it cheaply — and how external traces can be brought into the simulator.

File format: a one-line JSON header describing the processes and their
regions, then one line per access::

    {"version": 1, "processes": [{"name": ..., "home_socket": 0,
                                  "regions": [[start, n, is_anon, supervised], ...]}]}
    <process_index> <vpage> <w|r> <lines> <o|->

The format is line oriented and append friendly; gzip-compress large
traces externally if needed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.machine import Machine
from repro.mm.address_space import MemoryRegion, Process
from repro.workloads.base import AccessBlock, Workload

__all__ = ["TraceRecorder", "TraceReplayWorkload", "TRACE_VERSION"]

TRACE_VERSION = 1

#: Most positions a replayed block holds.
_BLOCK = 4096

_RW = {"r": False, "w": True}
_BOUNDARY = {"-": False, "o": True}


def _region_spec(region: MemoryRegion) -> list:
    return [region.start_vpage, region.n_pages, region.is_anon, region.supervised]


class TraceRecorder(Workload):
    """Tees an inner workload's access stream into a trace file.

    It passes the inner workload's blocks through, so a workload whose
    stream depends on the live machine (GAPBS cache absorption) records
    exactly the accesses the simulation executed."""

    def __init__(self, inner: Workload, path: str | Path) -> None:
        self.inner = inner
        self.path = Path(path)
        # The tee is transparent: boundary semantics are the inner
        # workload's.
        self.marks_op_boundaries = inner.marks_op_boundaries
        self.name = f"record[{inner.name}]"
        self._processes: list[Process] = []
        self._machine: Machine | None = None

    def setup(self, machine: Machine) -> None:
        before = set(machine.system.processes)
        self.inner.setup(machine)
        created = [
            machine.system.processes[pid]
            for pid in machine.system.processes
            if pid not in before
        ]
        self._processes = sorted(created, key=lambda p: p.pid)
        self._machine = machine

    def footprint_pages(self) -> int:
        return self.inner.footprint_pages()

    def blocks(self) -> Iterator[AccessBlock]:
        """The inner workload's blocks, passed through unchanged; the
        positions the driver processed (its ``done``) are written after
        each block, so a block the driver ended early records only what
        ran."""
        index_of = {process.pid: i for i, process in enumerate(self._processes)}
        header = {
            "version": TRACE_VERSION,
            "workload": self.inner.name,
            "processes": [
                {
                    "name": process.name,
                    "home_socket": process.home_socket,
                    "regions": [_region_spec(r) for r in process.regions],
                }
                for process in self._processes
            ],
        }
        with self.path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for block in self.inner.blocks():
                index = index_of.get(block.process.pid)
                if index is None:
                    raise RuntimeError(
                        f"access to unregistered process pid={block.process.pid}"
                    )
                yield block
                done = block.done
                rows = zip(
                    block.vpage[:done].tolist(), block.write[:done].tolist(),
                    block.lines[:done].tolist(), block.op_boundary[:done].tolist(),
                )
                fh.writelines(
                    f"{index} {vpage} {'w' if write else 'r'} "
                    f"{lines} {'o' if boundary else '-'}\n"
                    for vpage, write, lines, boundary in rows
                )


class TraceReplayWorkload(Workload):
    """Replays a recorded trace file as a workload."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with self.path.open() as fh:
            self.header = json.loads(fh.readline())
        if self.header.get("version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {self.header.get('version')!r}"
            )
        self.name = f"replay[{self.header.get('workload', self.path.name)}]"
        self._processes: list[Process] = []

    def setup(self, machine: Machine) -> None:
        self._processes = []
        for spec in self.header["processes"]:
            process = machine.create_process(
                spec["name"], home_socket=spec.get("home_socket", 0)
            )
            for start, n_pages, is_anon, supervised in spec["regions"]:
                process.mmap(
                    MemoryRegion(start, n_pages, is_anon=is_anon, supervised=supervised)
                )
            self._processes.append(process)

    def footprint_pages(self) -> int:
        return sum(
            n_pages
            for spec in self.header["processes"]
            for __, n_pages, __a, __s in spec["regions"]
        )

    def blocks(self) -> Iterator[AccessBlock]:
        """The trace's lines as per-process blocks of at most 4096
        positions, cut wherever the process changes."""
        with self.path.open() as fh:
            fh.readline()  # header
            index = None
            rows: list[tuple[int, bool, int, bool]] = []
            for line_no, line in enumerate(fh, start=2):
                row_index, *row = self._parse(line, line_no)
                if row_index != index or len(rows) == _BLOCK:
                    if rows:
                        yield self._block(index, rows)
                    index, rows = row_index, []
                rows.append(row)
            if rows:
                yield self._block(index, rows)

    def _block(self, index: int, rows: list) -> AccessBlock:
        vpage, write, lines, boundary = zip(*rows)
        return AccessBlock(
            self._processes[index],
            np.array(vpage, dtype=np.int64),
            np.array(write, dtype=bool),
            np.array(lines, dtype=np.int64),
            np.array(boundary, dtype=bool),
        )

    def _parse(self, line: str, line_no: int) -> tuple[int, int, bool, int, bool]:
        """``(process index, vpage, write, lines, boundary)`` of one line;
        a field out of its domain is malformed."""
        try:
            index, vpage, rw, lines, boundary = line.split()
            index, lines = int(index), int(lines)
            if not 0 <= index < len(self._processes) or lines <= 0:
                raise ValueError(line)
            return index, int(vpage), _RW[rw], lines, _BOUNDARY[boundary]
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{self.path}:{line_no}: malformed trace line") from exc
