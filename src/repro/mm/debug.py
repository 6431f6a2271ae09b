"""Kernel-style invariant checking — the simulator's ``CONFIG_DEBUG_VM``.

The kernel catches list corruption and accounting drift with
``VM_BUG_ON_PAGE`` assertions compiled in under ``CONFIG_DEBUG_VM``; the
simulator gets the same safety net here.  :func:`check_invariants` walks
the whole machine — every node, every LRU list, every page table — and
returns a list of violations instead of asserting, so callers choose
between logging (the chaos harness), raising (strict tests) and counting
(the periodic daemon).

Checks, mirroring their kernel analogues:

* list structure   — forward/backward links agree, lengths match the
  maintained counts, head/tail terminate properly (``list_head`` checks);
* single residence — every page sits on exactly one list, on the node it
  is accounted to, with its LRU flag matching (``VM_BUG_ON_PAGE(PageLRU)``);
* active flag      — a page carries ``ACTIVE`` exactly when it sits on an
  active list, never on an inactive, promote or unevictable one (the
  kernel's ``PageActive``/list agreement);
* frame accounting — each node's ``used_pages`` equals the distinct pages
  resident on it (LRU lists plus mapped off-list pages), and its cached
  ``free`` and ``level`` equal capacity − used − offline and that count's
  watermark level;
* rmap symmetry    — every translation in a ``v2p`` column is a
  ``(pid, vpage)`` pair in its page's rmap, every rmap pair is a
  translation of that page, and each page's ``mapcount`` is its rmap's
  length;
* swap accounting  — the backing store's slot count is consistent and
  within capacity;
* memcg accounting — when the controller is armed, every group's per-node
  RSS books match a recount of resident frames charged to it (via the
  page store's ``memcg_id`` column), no book is negative, totals are the
  sum of per-node entries, charged frames name a real group, and a
  killed group holds no residual charge;
* memcg reclaim windows — every tail→head prefix the controller kept
  whose list ``_gen`` has not moved since equals a fresh ``walk_tail``
  of that list (a missed generation bump shows up here);
* counter monotonicity — stat counters only ever grow between checks
  (the stateful part, held by :class:`InvariantChecker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.mm.system import MemorySystem

__all__ = ["Violation", "InvariantError", "check_invariants", "InvariantChecker"]


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which check, and what it saw."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


class InvariantError(AssertionError):
    """Raised in strict mode — the simulator's ``VM_BUG_ON``."""

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = violations
        lines = "\n".join(f"  {v}" for v in violations)
        super().__init__(f"{len(violations)} VM invariant violation(s):\n{lines}")


def check_invariants(system: "MemorySystem") -> list[Violation]:
    """Validate the whole machine's MM state; returns all violations found."""
    violations: list[Violation] = []
    seen_on_lists: dict[int, str] = {}  # pfn -> list description
    resident_by_node: dict[int, set[int]] = {}  # node id -> resident pfns
    store = system.pagestore
    pages = store.pages
    # Every translation in the page tables: (pid, vpage, pfn).
    mapped = [
        (process.pid, vpage, process.page_table.pfn(vpage))
        for process in system.processes.values()
        for vpage in process.page_table.vpages()
    ]
    mapped_by_node: dict[int, set[int]] = {}  # node id -> mapped pfns
    for __, __, pfn in mapped:
        if pfn < len(pages):
            mapped_by_node.setdefault(store.node.item(pfn), set()).add(pfn)

    for node in system.nodes.values():
        node_resident: set[int] = set()
        resident_by_node[node.node_id] = node_resident
        for lst in node.lruvec.all_lists():
            where = f"node{node.node_id}:{lst.name}"
            on_active = lst.kind is ListKind.ACTIVE
            count = 0
            prev = None
            cursor = lst.head
            broken = False
            while cursor is not None:
                count += 1
                if count > len(lst):
                    violations.append(Violation(
                        "list-structure",
                        f"{where} walk exceeds its count of {len(lst)} (cycle?)",
                    ))
                    broken = True
                    break
                if cursor.lru_prev is not prev:
                    violations.append(Violation(
                        "list-structure",
                        f"{where} back-link of pfn={cursor.pfn} does not match walk",
                    ))
                if cursor.lru is not lst:
                    violations.append(Violation(
                        "list-structure",
                        f"pfn={cursor.pfn} on {where} but its lru pointer says "
                        f"{cursor.lru.name if cursor.lru else None}",
                    ))
                if not cursor.test(PageFlags.LRU):
                    violations.append(Violation(
                        "list-structure", f"pfn={cursor.pfn} on {where} without the LRU flag"
                    ))
                if cursor.pfn in seen_on_lists:
                    violations.append(Violation(
                        "single-residence",
                        f"pfn={cursor.pfn} on both {seen_on_lists[cursor.pfn]} and {where}",
                    ))
                else:
                    seen_on_lists[cursor.pfn] = where
                if cursor.node_id != node.node_id:
                    violations.append(Violation(
                        "single-residence",
                        f"pfn={cursor.pfn} on {where} but accounted to node {cursor.node_id}",
                    ))
                if cursor.test(PageFlags.ACTIVE) is not on_active:
                    violations.append(Violation(
                        "active-flag",
                        f"pfn={cursor.pfn} on {where} "
                        f"{'without' if on_active else 'with'} the ACTIVE flag",
                    ))
                if lst.kind is ListKind.UNEVICTABLE and not cursor.test(PageFlags.UNEVICTABLE):
                    violations.append(Violation(
                        "single-residence",
                        f"pfn={cursor.pfn} on {where} without the UNEVICTABLE flag",
                    ))
                node_resident.add(cursor.pfn)
                prev = cursor
                cursor = cursor.lru_next
            if not broken:
                if count != len(lst):
                    violations.append(Violation(
                        "list-structure",
                        f"{where} holds {count} pages but counts {len(lst)}",
                    ))
                if lst.tail is not prev:
                    violations.append(Violation(
                        "list-structure", f"{where} tail pointer does not end the walk"
                    ))

        # Frame accounting: resident pages on this node's lists, plus any
        # mapped pages transiently off-LRU, must equal used_pages exactly.
        node_resident |= mapped_by_node.get(node.node_id, set())
        if len(node_resident) != node.used_pages:
            violations.append(Violation(
                "frame-accounting",
                f"node{node.node_id} accounts {node.used_pages} used frames but "
                f"{len(node_resident)} pages are resident",
            ))
        if node.used_pages < 0 or node.free_pages < 0 or node.offline_pages < 0:
            violations.append(Violation(
                "frame-accounting",
                f"node{node.node_id} has negative accounting: used={node.used_pages} "
                f"free={node.free_pages} offline={node.offline_pages}",
            ))
        # The cached free count and level must be what the counts give.
        free = node.capacity_pages - node.used_pages - node.offline_pages
        level = node.watermarks.pressure(free)
        if node.free != free or node.level is not level:
            violations.append(Violation(
                "frame-accounting",
                f"node{node.node_id} caches free={node.free} level={node.level.name} "
                f"but capacity-used-offline gives free={free} level={level.name}",
            ))

    # Rmap symmetry between the v2p columns and Page.rmap, both
    # directions, and each page's cached mapping count.
    for pid, vpage, pfn in mapped:
        if pfn >= len(pages) or (pid, vpage) not in pages[pfn].rmap:
            violations.append(Violation(
                "rmap",
                f"pid={pid} vpage={vpage} maps pfn={pfn} but is missing from its rmap",
            ))
    for page in pages:
        for pid, vpage in page.rmap:
            owner = system.processes.get(pid)
            if owner is None or owner.page_table.pfn(vpage) != page.pfn:
                violations.append(Violation(
                    "rmap",
                    f"pfn={page.pfn} rmap holds a stale mapping (pid={pid} vpage={vpage})",
                ))
        if store.mapcount.item(page.pfn) != len(page.rmap):
            violations.append(Violation(
                "rmap",
                f"pfn={page.pfn} counts {store.mapcount.item(page.pfn)} mappings "
                f"but its rmap holds {len(page.rmap)}",
            ))

    backing = system.backing
    if backing.swapped_pages > backing.swap_capacity_pages:
        violations.append(Violation(
            "swap-accounting",
            f"{backing.swapped_pages} pages swapped exceeds capacity "
            f"{backing.swap_capacity_pages}",
        ))
    if backing.swap_outs - backing.swap_ins != backing.swapped_pages:
        violations.append(Violation(
            "swap-accounting",
            f"swap_outs-swap_ins {backing.swap_outs}-{backing.swap_ins} "
            f"!= resident slots {backing.swapped_pages}",
        ))

    # Memcg accounting: the controller's O(1) books must equal a recount
    # of resident frames from the store's memcg_id column.
    memcg = system.memcg
    if memcg is not None:
        memcg_col = system.pagestore.memcg_id
        recount: dict[tuple[int, int], int] = {}  # (group id, node id) -> pages
        for node_id, resident in resident_by_node.items():
            for pfn in resident:
                group_id = memcg_col.item(pfn)
                if group_id < 0:
                    continue  # uncharged frame (allocated before arming)
                if group_id >= len(memcg.groups):
                    violations.append(Violation(
                        "memcg-accounting",
                        f"pfn={pfn} on node{node_id} is charged to group "
                        f"{group_id}, but only {len(memcg.groups)} exist",
                    ))
                    continue
                key = (group_id, node_id)
                recount[key] = recount.get(key, 0) + 1
        for group in memcg.groups:
            for node_id, count in group.rss.items():
                if count < 0:
                    violations.append(Violation(
                        "memcg-accounting",
                        f"group {group.name!r} books negative rss {count} "
                        f"on node{node_id}",
                    ))
            if group.rss_total != sum(group.rss.values()):
                violations.append(Violation(
                    "memcg-accounting",
                    f"group {group.name!r} rss_total {group.rss_total} != "
                    f"sum of per-node books {sum(group.rss.values())}",
                ))
            if group.killed and group.rss_total != 0:
                violations.append(Violation(
                    "memcg-accounting",
                    f"killed group {group.name!r} still holds "
                    f"{group.rss_total} resident pages",
                ))
            node_ids = set(group.rss) | {
                nid for (gid, nid) in recount if gid == group.id
            }
            for node_id in sorted(node_ids):
                booked = group.rss.get(node_id, 0)
                actual = recount.get((group.id, node_id), 0)
                if booked != actual:
                    violations.append(Violation(
                        "memcg-accounting",
                        f"group {group.name!r} books {booked} pages on "
                        f"node{node_id} but {actual} frames are charged to it",
                    ))
        for lst, (gen, prefix) in memcg.windows.items():
            if gen != lst._gen:
                continue
            if len(prefix) > len(lst) or not np.array_equal(
                store.walk_tail(lst, len(prefix)), prefix
            ):
                violations.append(Violation(
                    "memcg-reclaim-window",
                    f"{lst.name} (list {lst.list_id}) kept a {len(prefix)}-pfn "
                    f"prefix at gen {gen} that is no longer its tail",
                ))
    return violations


class InvariantChecker:
    """Periodic / on-demand invariant checking with counter tracking.

    Stateless structural checks come from :func:`check_invariants`; this
    object adds the *monotone counters* check (needs the previous
    snapshot) and the bookkeeping to run from the daemon scheduler:
    ``debug_vm.checks`` counts sweeps, ``debug_vm.violations`` accumulates
    findings, and ``last_violations`` keeps the most recent detail for
    reporting.  ``strict=True`` raises :class:`InvariantError` instead —
    the panic-on-corruption configuration used by the chaos tests.
    """

    #: counters the checker itself bumps, exempt from the monotone check
    #: (they are, but excluding them keeps the check self-contained).
    _SELF = ("debug_vm.checks", "debug_vm.violations")

    def __init__(self, system: "MemorySystem", *, strict: bool = False) -> None:
        self.system = system
        self.strict = strict
        self.last_violations: list[Violation] = []
        self._c_checks = system.stats.counter("debug_vm.checks")
        self._c_violations = system.stats.counter("debug_vm.violations")
        self._last_counters: dict[str, int] = {}

    @property
    def name(self) -> str:
        return "debug_vm"

    def check(self) -> list[Violation]:
        """One full sweep; records, remembers and (in strict mode) raises."""
        violations = check_invariants(self.system)
        current = self.system.stats.snapshot()
        for key, value in self._last_counters.items():
            if key in self._SELF:
                continue
            if current.get(key, 0) < value:
                violations.append(Violation(
                    "counter-monotone",
                    f"counter {key} went backwards: {value} -> {current.get(key, 0)}",
                ))
        self._last_counters = current
        self._c_checks.n += 1
        self._c_violations.n += len(violations)
        self.last_violations = violations
        if violations and self.strict:
            raise InvariantError(violations)
        return violations

    def run(self, now_ns: int) -> int:
        """Daemon body: sweep and charge nothing (a pure observer)."""
        self.check()
        return 0
