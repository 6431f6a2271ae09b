"""Shared machinery for the GAPBS kernel workloads.

Each kernel subclasses :class:`GraphKernelWorkload`, which owns the
virtual-memory layout of the CSR graph and the property arrays, the
load pass that first-touches the graph into memory (GAPBS "first loads
the graph in memory and then executes multiple trials of the workload"),
and the emission of page-granular touches as
:class:`~repro.machine.AccessBlock` columns.

Emission is columnar.  A kernel records one trial as *vertex-level
events* (read ``offsets[v]``, read v's neighbor range, touch property
slot v), and :func:`_touch_columns` expands them, with
``np.repeat``/offset arithmetic, into the trial's *candidate* page
touches: ``vpage``, ``write``, ``lines``, ``op_boundary`` and a
cache-group code.  The candidates depend only on the graph, the kernel
and its parameters, so they are built once and memoised on the
:class:`~repro.workloads.gapbs.graph.Graph`; every policy that runs the
same kernel configuration walks the same columns.

What does depend on the run is CPU-cache absorption: a cacheable touch
(an ``offsets`` read or a property slot) whose page is mapped is served
by the cache with probability ``cpu_cache_hit_rate``, and a cold miss
always reaches memory.  :meth:`GraphKernelWorkload._walk` resolves that
lazily, in stream order, against the live page table, with the driver
telling it where each block stopped (see its docstring).

A block's survivors are a function of the columns, its start, the
global index of its first draw, the hit rate and which of its heads
are mapped, so :class:`TouchColumns` also memoises them per
``(start, end, draw index, hit rate)``: a later policy walking the same
configuration gathers the heads' mapped mask from the live table and
replays the block when the mask is the one recorded.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.machine import Machine
from repro.mm.address_space import Process
from repro.mm.page_table import UNMAPPED, PageTable
from repro.sim.config import PAGE_SIZE
from repro.sim.rng import make_rng
from repro.workloads.base import AccessBlock, Workload
from repro.workloads.gapbs.graph import Graph

__all__ = ["GraphKernelWorkload", "Traversal", "TouchColumns", "bfs_traversal"]

_LINE = 64

OFFSETS_BASE = 0
NEIGHBORS_BASE = 1 << 20
WEIGHTS_BASE = 1 << 21
PROP_BASE = 1 << 22
PROP_STRIDE = 1 << 20

OFFSET_BYTES = 8
NEIGHBOR_BYTES = 4
WEIGHT_BYTES = 4
PROP_BYTES = 8

# Vertex-level event kinds.  A property event is PROP + 2 * array_id +
# is_write, so one small integer says which array and which direction.
OFF = 0  # read offsets[v] and offsets[v + 1] (cacheable)
NEIGH = 1  # read v's packed neighbor range
WEIGHT = 2  # read v's edge-weight range
PROP = 3  # touch one property slot (cacheable)
_KIND_BITS = 4  # sequential kernels pack an event as v << 4 | kind
_MAX_PROP_ARRAYS = 4
# Per event kind: region base vpage, bytes read (fixed-width kinds), write.
_EVENT_BASE = np.array(
    [OFFSETS_BASE, NEIGHBORS_BASE, WEIGHTS_BASE]
    + [PROP_BASE + (k // 2) * PROP_STRIDE for k in range(2 * _MAX_PROP_ARRAYS)]
)
_EVENT_BYTES = np.array([2 * OFFSET_BYTES, 0, 0] + [PROP_BYTES] * 2 * _MAX_PROP_ARRAYS)
_EVENT_WRITES = np.array([False] * 3 + [False, True] * _MAX_PROP_ARRAYS)

# Cache-group codes of a candidate touch.
PLAIN = 0  # always reaches memory
HEAD = 1  # cacheable: absorbed with the hit rate when its page is mapped
FOLLOWER = 2  # second page of an ``offsets`` read that straddles two pages

#: Candidates resolved per block by the lazy walk.
_BLOCK = 4096
#: CPU-cache draws taken from the generator per refill.
_DRAW_CHUNK = 1 << 14


def prop(array_id: int = 0, is_write: bool = False) -> int:
    """The event kind of a property-slot touch."""
    return PROP + 2 * array_id + is_write


def decode_events(packed: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split ``v << 4 | kind`` packed events into vertex and kind columns."""
    arr = np.asarray(packed, dtype=np.int64)
    return arr >> _KIND_BITS, arr & ((1 << _KIND_BITS) - 1)


def group_ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[i]-1`` for each group i, concatenated."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def interleave(fields: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Lay per-vertex fields out in vertex order.

    ``fields`` is a list of ``(counts, vertices, kinds)``: vertex ``u``
    owns ``counts[u]`` consecutive entries of ``vertices``/``kinds``
    (``kinds`` may be a scalar).  The result holds, for ``u = 0, 1, ...``,
    u's entries of the first field, then of the second, and so on — the
    event order of a ``for u in range(n)`` loop whose body emits the
    fields in turn.
    """
    counts = [np.asarray(c, dtype=np.int64) for c, __, __k in fields]
    per_vertex = sum(counts)
    cursor = np.cumsum(per_vertex) - per_vertex
    total = int(per_vertex.sum())
    out_v = np.empty(total, dtype=np.int64)
    out_k = np.empty(total, dtype=np.int64)
    for count, (__, vertices, kinds) in zip(counts, fields):
        pos = np.repeat(cursor, count) + group_ranks(count)
        out_v[pos] = vertices
        out_k[pos] = kinds
        cursor = cursor + count
    return out_v, out_k


class Traversal(NamedTuple):
    """A breadth-first traversal, in the order a FIFO queue visits it.

    ``order`` lists the reached vertices as a queue pops them and
    ``depth`` gives every vertex's BFS depth (-1 if unreached).
    ``neighbors`` concatenates the neighbor lists of ``order``, where
    ``order[i]`` owns ``degree[i]`` entries, and ``found`` marks the entry
    at which each vertex past the source was discovered.
    """

    order: np.ndarray
    depth: np.ndarray
    degree: np.ndarray
    neighbors: np.ndarray
    found: np.ndarray

    def owner_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per ``order`` vertex, how many of its neighbor entries ``mask`` marks."""
        owner = np.repeat(np.arange(len(self.order)), self.degree)
        return np.bincount(owner[mask], minlength=len(self.order))


def bfs_traversal(graph: Graph, source: int) -> Traversal:
    """Top-down BFS from ``source``, one frontier at a time.

    A FIFO queue pops a whole level before the next, in the order the
    level was discovered, and discovers a vertex at its first unvisited
    occurrence among the level's neighbor lists, so each level is one
    gather of its CSR ranges and one ``np.unique``.
    """
    offsets = graph.offsets
    depth = np.full(graph.n, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    levels = []
    level = 0
    while len(frontier):
        start = offsets[frontier]
        degree = offsets[frontier + 1] - start
        neighbors = graph.neighbors[np.repeat(start, degree) + group_ranks(degree)]
        fresh = np.flatnonzero(depth[neighbors] < 0)
        first = np.sort(fresh[np.unique(neighbors[fresh], return_index=True)[1]])
        found = np.zeros(len(neighbors), dtype=bool)
        found[first] = True
        levels.append((frontier, degree, neighbors, found))
        frontier = neighbors[first].astype(np.int64)
        level += 1
        depth[frontier] = level
    order, degree, neighbors, found = (np.concatenate(col) for col in zip(*levels))
    return Traversal(order, depth, degree, neighbors.astype(np.int64), found)


class Survivors(NamedTuple):
    """One walked block: the heads' mapped mask it was decided at, the
    mapped heads' positions, the survivors' positions and their columns
    (read-only, so every replay hands the driver the same values), and
    the block's ``live``."""

    mapped: np.ndarray
    mapped_pos: np.ndarray
    survivors: np.ndarray
    vpage: np.ndarray
    write: np.ndarray
    lines: np.ndarray
    op_boundary: np.ndarray
    slots: np.ndarray
    live: int


@dataclass
class TouchColumns:
    """One stream's candidate page touches, plus what the walk needs.

    ``group`` is :data:`PLAIN`, :data:`HEAD` or :data:`FOLLOWER`; a
    follower always sits right after its head.  ``head_pos`` lists the
    heads' positions and ``head_follows`` says whether a follower comes
    next.  ``results`` holds what the kernel computed (``final_ranks``
    and the like).  ``walked`` holds the blocks the walk decided, keyed
    by ``(start, end, draw index, hit rate)``; it is valid for the slots
    of one region layout and cleared with them.
    """

    vpage: np.ndarray
    write: np.ndarray
    lines: np.ndarray
    op_boundary: np.ndarray
    group: np.ndarray
    results: dict

    def __post_init__(self) -> None:
        self.head_pos = np.flatnonzero(self.group == HEAD)
        follows = np.append(self.group[1:] == FOLLOWER, False)
        self.head_follows = follows[self.head_pos]
        self._slots_layout: tuple | None = None
        self._slots = np.empty(0, dtype=np.int64)
        self.walked: dict[tuple, Survivors] = {}

    def __len__(self) -> int:
        return len(self.vpage)

    def slots(self, page_table: PageTable) -> np.ndarray:
        """Each candidate's ``v2p`` slot in ``page_table``.

        Memoised on the table's region layout, which every process
        running the same kernel shares, so the candidates are resolved
        once however many policies walk them.  The walked blocks carry
        slots, so they go with a new layout.
        """
        layout = page_table.layout()
        if layout != self._slots_layout:
            self._slots = page_table.resolve(self.vpage)
            self._slots_layout = layout
            self.walked.clear()
        return self._slots


def _touch_columns(
    base: np.ndarray,
    byte_lo: np.ndarray,
    byte_hi: np.ndarray,
    write: np.ndarray,
    cacheable: np.ndarray,
    *,
    boundary: bool = False,
    results: dict | None = None,
) -> TouchColumns:
    """Expand byte-range touches into page touches.

    Range ``i`` covers ``[byte_lo[i], byte_hi[i])`` of the region at
    vpage ``base[i]`` (an empty range still touches its first byte) and
    becomes one touch per covered page, each charged the cache lines it
    spans.  A cacheable range's first page is a head and any further
    page a follower.  With ``boundary`` an operation-boundary read of
    ``offsets`` page 0 closes the stream (one trial = one operation).
    """
    byte_hi = np.maximum(byte_hi, byte_lo + 1)
    first = byte_lo // PAGE_SIZE
    n_pages = (byte_hi - 1) // PAGE_SIZE - first + 1
    which = np.repeat(np.arange(len(base)), n_pages)
    page = first[which] + group_ranks(n_pages)
    lo = np.maximum(byte_lo[which], page * PAGE_SIZE)
    hi = np.minimum(byte_hi[which], (page + 1) * PAGE_SIZE)
    lines = np.maximum(1, (hi - lo + _LINE - 1) // _LINE)
    vpage = base[which] + page
    group = np.where(
        cacheable[which], np.where(page == first[which], HEAD, FOLLOWER), PLAIN
    )
    write = write[which]
    op_boundary = np.zeros(len(vpage), dtype=bool)
    if boundary:
        vpage = np.append(vpage, OFFSETS_BASE)
        write = np.append(write, False)
        lines = np.append(lines, 1)
        group = np.append(group, PLAIN)
        op_boundary = np.append(op_boundary, True)
    return TouchColumns(
        vpage=vpage.astype(np.int64),
        write=write.astype(bool),
        lines=lines.astype(np.int64),
        op_boundary=op_boundary,
        group=group.astype(np.int8),
        results=results or {},
    )


class GraphKernelWorkload(Workload):
    """Base class: CSR layout, load pass, and touch emission."""

    kernel = "abstract"
    #: True when every trial runs the same computation (no per-trial
    #: source vertex), so all trials share one set of columns.
    trial_invariant = False

    def __init__(
        self,
        graph: Graph,
        *,
        trials: int = 1,
        seed: int = 1,
        cpu_cache_hit_rate: float = 0.85,
    ) -> None:
        """``cpu_cache_hit_rate`` models the CPU cache hierarchy absorbing
        most offset/property accesses: those arrays are a few bytes per
        vertex and enjoy high temporal locality, so on real hardware the
        memory system only sees a fraction of their touches.  Cold misses
        (first touch of an unmapped page) always reach memory."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        if not 0.0 <= cpu_cache_hit_rate < 1.0:
            raise ValueError("cpu_cache_hit_rate must lie in [0, 1)")
        self.graph = graph
        self.trials = trials
        self.seed = seed
        self.cpu_cache_hit_rate = cpu_cache_hit_rate
        self.process: Process | None = None
        self.machine: Machine | None = None
        self.loaded = False
        self.name = f"gapbs-{self.kernel}"
        self._prop_regions: list = []
        self._cache_rng = make_rng(seed, f"{self.kernel}-cpu-cache")
        # _cache_rng's stream, drawn ahead; _draw_pos is the next unused,
        # and _draws[0] is draw number _draw_base of the whole stream.
        self._draws = np.empty(0)
        self._draw_pos = 0
        self._draw_base = 0
        # Whether this run records the blocks it decides: until it
        # replays a recorded block or meets a recorded key at another mask.
        self._recording = True

    # -- layout -----------------------------------------------------------------

    def _pages(self, n_bytes: int) -> int:
        return max(1, (n_bytes - 1) // PAGE_SIZE + 1)

    def offsets_pages(self) -> int:
        return self._pages((self.graph.n + 1) * OFFSET_BYTES)

    def neighbors_pages(self) -> int:
        return self._pages(self.graph.m_directed * NEIGHBOR_BYTES)

    def prop_pages(self) -> int:
        return self._pages(self.graph.n * PROP_BYTES)

    def n_property_arrays(self) -> int:
        """How many per-vertex arrays the kernel keeps (override)."""
        return 1

    def uses_weights(self) -> bool:
        return False

    def kernel_params(self) -> tuple:
        """Parameters that shape the kernel's computation (override)."""
        return ()

    def footprint_pages(self) -> int:
        total = self.offsets_pages() + self.neighbors_pages()
        total += self.n_property_arrays() * self.prop_pages()
        if self.uses_weights():
            total += self._pages(self.graph.m_directed * WEIGHT_BYTES)
        return total

    def setup(self, machine: Machine) -> None:
        if self.process is not None:
            return  # already set up (e.g. by the separate load workload)
        self.machine = machine
        self.process = machine.create_process(self.name)
        self.process.mmap_anon(OFFSETS_BASE, self.offsets_pages())
        self.process.mmap_anon(NEIGHBORS_BASE, self.neighbors_pages())
        if self.uses_weights():
            self.process.mmap_anon(
                WEIGHTS_BASE, self._pages(self.graph.m_directed * WEIGHT_BYTES)
            )
        for array_id in range(self.n_property_arrays()):
            region = self.process.mmap_anon(
                PROP_BASE + array_id * PROP_STRIDE, self.prop_pages()
            )
            self._prop_regions.append(region)

    # -- candidate columns ------------------------------------------------------------

    def event_columns(
        self, vertices: np.ndarray, kinds: np.ndarray, results: dict
    ) -> TouchColumns:
        """Expand one trial's vertex-level events into its candidates."""
        v = np.asarray(vertices, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.int64)
        is_range = (kinds == NEIGH) | (kinds == WEIGHT)
        offsets = self.graph.offsets
        # Slots are v * 8 bytes in offsets and in every property array;
        # NEIGHBOR_BYTES == WEIGHT_BYTES, so one formula serves both ranges.
        byte_lo = np.where(is_range, offsets[v] * NEIGHBOR_BYTES, v * OFFSET_BYTES)
        byte_hi = np.where(
            is_range, offsets[v + 1] * NEIGHBOR_BYTES, byte_lo + _EVENT_BYTES[kinds]
        )
        return _touch_columns(
            _EVENT_BASE[kinds], byte_lo, byte_hi, _EVENT_WRITES[kinds], ~is_range,
            boundary=True, results=results,
        )

    def trial_columns(self, trial: int) -> TouchColumns:
        """Trial ``trial``'s candidates, built once per kernel configuration.

        The memo lives on the graph and holds only the latest
        configuration (kernel class, seed, parameters), which is what a
        figure running one kernel under every policy in turn reuses.
        """
        memo = self.graph.emission_memo
        config = (type(self), self.seed, self.kernel_params())
        if memo.get("config") != config:
            memo.clear()
            memo["config"] = config
        key = 0 if self.trial_invariant else trial
        columns = memo.get(key)
        if columns is None:
            columns = memo[key] = self.event_columns(*self.trial_events(trial))
        return columns

    @abc.abstractmethod
    def trial_events(self, trial: int) -> tuple[np.ndarray, np.ndarray, dict]:
        """One trial as ``(vertices, kinds, results)`` event columns."""

    # -- the lazy walk ----------------------------------------------------------------

    def _take_draws(self, k: int) -> int:
        """Reserve the next ``k`` cache draws; returns their start index."""
        if self._draw_pos + k > len(self._draws):
            fresh = self._cache_rng.random(max(k, _DRAW_CHUNK))
            self._draws = np.concatenate([self._draws[self._draw_pos :], fresh])
            self._draw_base += self._draw_pos
            self._draw_pos = 0
        start = self._draw_pos
        self._draw_pos += k
        return start

    def _walk(self, cols: TouchColumns) -> Iterator[AccessBlock]:
        """Yield the candidates that reach memory, deciding absorption lazily.

        Absorption must see the page table as it is when the driver
        reaches each head: a fault, a swap-out or a discard processed in
        between changes which heads are mapped, and so which heads take
        a draw.  A range of candidates is resolved at once against the
        live table, with draws taken in stream order, and its survivors
        are yielded as one block whose ``live`` covers every survivor
        before the range's last head, so the driver ends the block right
        after a position that moved the table's size or unmap
        generation while heads lie ahead.  On resume, if the table moved
        and a head lies past the last position the driver processed, the
        rest is resolved again from the next candidate, with the draw
        cursor rewound to it.  The draws and the accesses are then
        exactly those of testing each head when it is reached.

        Given the columns, a range's survivors depend only on its start
        and end, the global index of its first draw (the kernel's
        ``_cache_rng`` stream is fixed by its seed, and
        ``Generator.random(k)`` equals k scalar draws), the hit rate and
        the heads' mapped mask.  So every range still gathers its mask
        from the live table and takes its draws, and a range decided
        before (by an earlier policy, or trial of a trial-invariant
        kernel) at the same key and the same mask is replayed from
        ``cols.walked``; any other range is decided here.  Only a run
        that has met nothing but unrecorded keys records what it decides
        (the first run of a configuration, every trial).  A later run
        starts at the same key; once it replays a block, or meets a key
        at another mask, its draw index and rewind positions follow its
        own evictions, keys no other run shares, so it records nothing
        more and the memo holds at most one run's blocks per hit rate.
        """
        process = self.process
        assert process is not None, "setup() must run before blocks()"
        page_table = process.page_table
        # Regions are mapped before the walk, so the slots are fixed; each
        # block carries its survivors' slots to the driver.
        slots = cols.slots(page_table)
        walked = cols.walked
        regions = page_table.n_regions
        head_v2p_slot = slots[cols.head_pos]
        group = cols.group
        head_pos = cols.head_pos
        hit_rate = self.cpu_cache_hit_rate
        n = len(cols)
        pos = 0
        while pos < n:
            end = min(pos + _BLOCK, n)
            if end < n and group[end] == FOLLOWER:
                end += 1  # never split a head from its follower
            h0, h1 = np.searchsorted(head_pos, (pos, end))
            size = len(page_table)
            gen = page_table._unmap_gen
            mapped = page_table.v2p[head_v2p_slot[h0:h1]] != UNMAPPED
            first_draw = self._take_draws(int(np.count_nonzero(mapped)))
            key = (pos, end, self._draw_base + first_draw, hit_rate)
            entry = walked.get(key)
            if entry is None or not np.array_equal(entry.mapped, mapped):
                self._recording &= entry is None
                entry = self._decide(cols, slots, pos, end, h0, h1, mapped, first_draw)
                if self._recording:
                    walked[key] = entry
            else:
                self._recording = False
            next_pos = end
            survivors = entry.survivors
            if len(survivors):
                block = AccessBlock(
                    process, entry.vpage, entry.write, entry.lines,
                    entry.op_boundary, live=entry.live, slots=entry.slots,
                    regions=regions,
                )
                yield block
                reached = int(survivors[block.done - 1])
                last_head = int(head_pos[h1 - 1]) if h1 > h0 else -1
                if last_head > reached and (
                    len(page_table) != size or page_table._unmap_gen != gen
                ):
                    next_pos = reached + 1
                    self._draw_pos = first_draw + int(
                        np.searchsorted(entry.mapped_pos, next_pos)
                    )
            pos = next_pos

    def _decide(
        self, cols: TouchColumns, slots: np.ndarray, pos: int, end: int,
        h0: int, h1: int, mapped: np.ndarray, first_draw: int,
    ) -> Survivors:
        """Absorb ``[pos, end)``'s mapped heads with the draws reserved
        at ``first_draw``; its survivors, as a read-only block."""
        head_pos = cols.head_pos[h0:h1]
        mapped_pos = head_pos[mapped]
        absorbed = (
            self._draws[first_draw : first_draw + len(mapped_pos)]
            < self.cpu_cache_hit_rate
        )
        keep = np.ones(end - pos, dtype=bool)
        dropped = mapped_pos[absorbed]
        keep[dropped - pos] = False
        keep[dropped[cols.head_follows[h0:h1][mapped][absorbed]] + 1 - pos] = False
        survivors = np.flatnonzero(keep) + pos
        last_head = int(head_pos[-1]) if len(head_pos) else -1
        columns = [
            column[survivors]
            for column in (cols.vpage, cols.write, cols.lines, cols.op_boundary, slots)
        ]
        for column in columns:
            column.flags.writeable = False
        return Survivors(
            mapped, mapped_pos, survivors, *columns,
            live=int(np.searchsorted(survivors, last_head)),
        )

    # -- the load pass ---------------------------------------------------------------

    def load_pass(self) -> Iterator[AccessBlock]:
        """First-touch the CSR (the graph build), as GAPBS does.

        GAPBS builds the CSR once before running trials — offsets,
        weights and the packed neighbor array are the pages that "fill
        the DRAM first" (Section V-C1).  The per-vertex property arrays
        are *not* loaded here: each kernel invocation allocates its own
        result vectors, so their pages are first-touched inside each
        trial — and, with DRAM already full of CSR data, are born in the
        PM tier.  Promoting exactly those hot per-trial pages is where
        dynamic tiering earns its GAPBS gains.
        """
        graph = self.graph
        ranges = [(OFFSETS_BASE, (graph.n + 1) * OFFSET_BYTES)]
        if self.uses_weights():
            ranges.append((WEIGHTS_BASE, graph.m_directed * WEIGHT_BYTES))
        ranges.append((NEIGHBORS_BASE, graph.m_directed * NEIGHBOR_BYTES))
        base, byte_hi = (np.array(col, dtype=np.int64) for col in zip(*ranges))
        ones = np.ones(len(ranges), dtype=bool)
        return self._walk(
            _touch_columns(base, np.zeros_like(base), byte_hi, ones, ~ones)
        )

    def load_workload(self) -> "GraphLoadWorkload":
        """The load phase as its own workload, so experiments can exclude
        it from trial timing ("We report the average execution time taken
        per trial", Section V-B)."""
        return GraphLoadWorkload(self)

    # -- the kernel -------------------------------------------------------------------

    def blocks(self) -> Iterator[AccessBlock]:
        if not self.loaded:
            yield from self.load_pass()
            self.loaded = True
        for trial in range(self.trials):
            columns = self.trial_columns(trial)
            # The stream ends with the boundary access; the arrays are
            # freed once the driver has processed it.
            yield from self._walk(columns)
            for name, value in columns.results.items():
                setattr(self, name, copy.copy(value))
            self._free_trial_arrays()

    def _free_trial_arrays(self) -> None:
        """Drop the per-trial property arrays, as a kernel returning
        frees its result vectors; the next trial re-allocates them."""
        if self.machine is None:
            return
        for region in self._prop_regions:
            self.machine.system.discard_region(self.process, region)


class GraphLoadWorkload(Workload):
    """Runs only a kernel workload's graph-loading pass."""

    def __init__(self, kernel: GraphKernelWorkload) -> None:
        self.kernel = kernel
        self.name = f"{kernel.name}-load"

    def setup(self, machine: Machine) -> None:
        self.kernel.setup(machine)

    def footprint_pages(self) -> int:
        return self.kernel.footprint_pages()

    def blocks(self) -> Iterator[AccessBlock]:
        yield from self.kernel.load_pass()
        self.kernel.loaded = True
