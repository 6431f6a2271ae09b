"""Multi-tenant workloads: several applications sharing one machine.

MULTI-CLOCK "is entirely transparent and backward compatible with any
existing application" (Abstract) — nothing in the design is per-process.
This combinator interleaves the access streams of several child
workloads round-robin, each with its own process (optionally pinned to a
socket on multi-socket machines), so tests and experiments can check
that tiering decisions hold up under co-located tenants competing for
the DRAM tier.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.machine import AccessBlock, Machine
from repro.mm.address_space import Process
from repro.sim.rng import make_rng
from repro.workloads.base import Workload
from repro.workloads.kvstore import INSERT, READ, UPDATE, SlabKVStore, touch_columns

__all__ = ["MultiTenantWorkload", "KVTenantWorkload"]

#: Operations a KV tenant lays out as one block.
_CHUNK = 512


class MultiTenantWorkload(Workload):
    """Round-robin interleaving of several child workloads."""

    def __init__(
        self,
        tenants: Sequence[Workload],
        *,
        home_sockets: Sequence[int] | None = None,
        batch: int = 16,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        if home_sockets is not None and len(home_sockets) != len(tenants):
            raise ValueError("home_sockets must match tenants one-to-one")
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.tenants = list(tenants)
        self.home_sockets = list(home_sockets) if home_sockets else None
        self.batch = batch
        self.name = "multitenant[" + "+".join(t.name for t in tenants) + "]"
        # Derived, not inherited: the class default (False) made a
        # combination of boundary-marking tenants report accesses/s
        # instead of real zero-op results when a phase completed no
        # operations.  Any child that marks boundaries is enough — the
        # runner only needs to know markers can appear in the stream.
        self.marks_op_boundaries = any(t.marks_op_boundaries for t in self.tenants)

    def setup(self, machine: Machine) -> None:
        for i, tenant in enumerate(self.tenants):
            tenant.setup(machine)
            if self.home_sockets is not None:
                process = getattr(tenant, "process", None)
                if process is None:
                    raise ValueError(
                        f"tenant {tenant.name} exposes no process to pin"
                    )
                process.home_socket = self.home_sockets[i]

    def footprint_pages(self) -> int:
        return sum(tenant.footprint_pages() for tenant in self.tenants)

    def blocks(self) -> Iterator[AccessBlock]:
        """Interleave tenants in turns of ``batch`` positions until every
        stream is drained.

        Batched round-robin mimics scheduler timeslices: each tenant runs
        a short burst, so their access patterns interleave at a realistic
        granularity rather than per-single-access.  A turn cuts a child's
        block where it ends, so the driver's ``done`` reaches the cut
        piece, not the child: a child's stream must not depend on live
        machine state (GAPBS cache absorption does).
        """
        turns = [_turns(tenant.blocks(), self.batch) for tenant in self.tenants]
        while turns:
            for stream in list(turns):
                turn = next(stream, None)
                if turn is None:
                    turns.remove(stream)
                else:
                    yield from turn


def _turns(blocks: Iterator[AccessBlock], batch: int) -> Iterator[list[AccessBlock]]:
    """``blocks`` regrouped into turns of ``batch`` positions (the last
    may be short), each a list of block pieces; a block is read only
    when the turn needs it."""
    turn: list[AccessBlock] = []
    room = batch
    for block in blocks:
        at, n = 0, len(block)
        while at < n:
            take = min(room, n - at)
            turn.append(block if take == n else _piece(block, at, at + take))
            at += take
            room -= take
            if not room:
                yield turn
                turn, room = [], batch
    if turn:
        yield turn


def _piece(block: AccessBlock, start: int, stop: int) -> AccessBlock:
    cut = slice(start, stop)
    return AccessBlock(
        block.process, block.vpage[cut], block.write[cut],
        block.lines[cut], block.op_boundary[cut],
    )


class KVTenantWorkload(Workload):
    """One Memcached-like tenant of a colocated service machine.

    A :class:`~repro.workloads.kvstore.SlabKVStore` driven by
    Zipf-distributed key popularity, with the two time-varying behaviours
    colocation experiments need:

    * **diurnal traffic** — ``phases`` are relative traffic weights; the
      operation budget is split across them proportionally, so a tenant
      with ``phases=(1.0, 0.2, 1.0)`` goes quiet in its second phase
      while the round-robin interleave keeps serving busier tenants;
    * **hotspot shift** — each phase draws a fresh popularity-rank →
      key permutation, so yesterday's hot records go cold and the
      tiering policy has to chase the new hot set.

    The stream starts with the load phase (every record inserted in slab
    order), then runs GET/SET traffic at ``read_ratio``.  Each operation
    is a hash-bucket probe plus a record touch; the last touch of every
    operation carries ``op_boundary``, and ``blocks()`` yields up to 512
    operations per block.  The colocation experiment cuts those blocks
    at operation boundaries into timeslices and meters each operation
    from the driver's per-position charges.  ``operations()`` gives the
    same touches as per-op lists, for per-access loops (the colocation
    reference); a stream is single-use because it mutates the slab
    layout as it loads.
    """

    marks_op_boundaries = True

    def __init__(
        self,
        tenant_name: str,
        n_records: int,
        ops: int,
        *,
        alpha: float = 1.1,
        read_ratio: float = 0.9,
        phases: Sequence[float] = (1.0,),
        value_size: int = 1024,
        seed: int = 7,
    ) -> None:
        if n_records <= 0 or ops <= 0:
            raise ValueError("n_records and ops must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must lie in [0, 1]")
        if not phases or any(w < 0 for w in phases) or sum(phases) <= 0:
            raise ValueError("phases must be non-negative weights summing > 0")
        self.name = tenant_name
        self.n_records = n_records
        self.ops = ops
        self.alpha = alpha
        self.read_ratio = read_ratio
        self.phases = tuple(float(w) for w in phases)
        self.seed = seed
        self.store = SlabKVStore(value_size=value_size)
        self.process: Process | None = None

    def setup(self, machine: Machine) -> None:
        self.process = machine.create_process(self.name)
        store = self.store
        data_pages = max(1, (self.n_records - 1) // store.items_per_page + 1)
        self.process.mmap_anon(store.hash_base, store.hash_pages(self.n_records))
        self.process.mmap_anon(store.data_base, data_pages)

    def footprint_pages(self) -> int:
        return self.store.footprint_pages(self.n_records)

    def phase_ops(self) -> list[int]:
        """Operation budget per diurnal phase (sums to ``ops`` exactly)."""
        weights = np.asarray(self.phases, dtype=np.float64)
        bounds = np.floor(np.cumsum(weights) / weights.sum() * self.ops).astype(int)
        counts = np.diff(bounds, prepend=0)
        counts[-1] += self.ops - int(bounds[-1])
        return counts.tolist()

    def _chunks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Touch columns ``(vpage, write, lines, op_boundary)`` of up to
        512 operations at a time: the load phase, then the traffic."""
        store = self.store
        for first in range(0, self.n_records, _CHUNK):
            key = np.arange(first, min(first + _CHUNK, self.n_records))
            yield touch_columns(store, np.full(len(key), INSERT), key)[:4]
        rng = make_rng(
            self.seed, f"kv-{self.name}-{self.n_records}-{self.alpha}"
        )
        ranks = np.arange(1, self.n_records + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        weights /= weights.sum()
        for count in self.phase_ops():
            # Hotspot shift: a fresh rank -> key mapping every phase.
            key_of_rank = rng.permutation(self.n_records)
            emitted = 0
            while emitted < count:
                n = min(_CHUNK, count - emitted)
                picks = rng.choice(self.n_records, size=n, p=weights)
                reads = rng.random(n) < self.read_ratio
                kind = np.where(reads, READ, UPDATE)
                yield touch_columns(store, kind, key_of_rank[picks])[:4]
                emitted += n

    def blocks(self) -> Iterator[AccessBlock]:
        process = self.process
        assert process is not None, "setup() must run before blocks()"
        for columns in self._chunks():
            yield AccessBlock(process, *columns)

    def operations(self) -> Iterator[list[tuple[int, bool, int]]]:
        """Per-operation ``(vpage, is_write, lines)`` touch lists, sliced
        from the same columns as :meth:`blocks`."""
        for vpage, write, lines, boundary in self._chunks():
            rows = list(zip(vpage.tolist(), write.tolist(), lines.tolist()))
            start = 0
            for end in (np.flatnonzero(boundary) + 1).tolist():
                yield rows[start:end]
                start = end
