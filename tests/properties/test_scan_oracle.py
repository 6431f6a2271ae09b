"""The CLOCK scans against a deliberately naive Figure-4 reference model.

The simulator's list scans are column sweeps over the page store.  This
module checks them against an independent model that keeps each list as
a plain Python list of pfns (tail first) and each page as a plain
record, and walks one page at a time with one branch per numbered
Figure-4 edge.  Hypothesis generates the list states: lengths 0-300,
budgets below, at and above the scanned list's length, mixed
accessed/referenced/dirty/mapped bits, with and without the edge-10
hook, with and without an over-limit memcg, and with and without an
``observe_scan`` override.  On every state the model and the simulator
must agree on list order, flag words, accessed and dirty bits, the
``ScanResult`` fields, the tracepoint sequence and, for the override,
the exact sequence of observed pages.

Three walk shapes appear, as in the simulator:

* kpromoted's hand takes the tail page ``budget`` times; once the list
  is lapped every further visit rotates a survivor, until the budget is
  spent or the list is empty;
* the reclaim-side deactivation walks tail to head and samples its next
  hop *before* each visit, so it stops when it passes the current head;
* Nimble's promote scan snapshots each PM list head first as it reaches
  it (active before inactive, anon before file) and promotes every page
  it finds referenced, demand-demoting DRAM's inactive tail when DRAM
  is full; the demoted pages land at the PM inactive heads, where a
  later snapshot sees them;
* AutoTiering-OPM's cold demotion walks each DRAM list tail first
  (inactive before active, anon before file), visits at most ``budget``
  pages in all, skips a page with history bits or a pin, stops a list
  at the first cold page the destination has no frame for, and stops
  everything once ``target`` pages moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiclock import MultiClockPolicy
from repro.core.rw_weighted import RWWeightedMultiClockPolicy
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.memcg import MemcgController
from repro.mm.system import MemorySystem
from repro.mm.vmscan import deactivate_excess_active
from repro.policies.autotiering import AutoTieringOPM
from repro.policies.nimble import NimblePolicy
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.trace.tracer import Tracer

KINDS = ("inactive", "active", "promote")
LIST_KIND = {"inactive": ListKind.INACTIVE, "active": ListKind.ACTIVE,
             "promote": ListKind.PROMOTE}
NODE = 1  # the PM node: room for every generated page
CONFIG = SimulationConfig(dram_pages=(64,), pm_pages=(1024,))


class ObservingPolicy(RWWeightedMultiClockPolicy):
    """multiclock-rw that also logs every page ``observe_scan`` sees."""

    def __init__(self, system: MemorySystem) -> None:
        self.observed: list[int] = []
        super().__init__(system)

    def observe_scan(self, page) -> None:
        self.observed.append(page.pfn)
        super().observe_scan(page)


# -- the reference model ------------------------------------------------------


@dataclass
class Rec:
    """One page: plain fields, no columns."""

    pfn: int
    accessed: bool
    dirty: bool
    mapped: bool
    referenced: bool
    active: bool
    promote: bool
    heavy: bool  # charged to an over-limit memcg
    policy_data: object = None

    def flag_word(self) -> int:
        word = int(PageFlags.LRU)
        if self.referenced:
            word |= int(PageFlags.REFERENCED)
        if self.active:
            word |= int(PageFlags.ACTIVE)
        if self.promote:
            word |= int(PageFlags.PROMOTE)
        return word


@dataclass
class Model:
    pages: dict[int, Rec]
    lists: dict[str, list[int]]  # tail first
    events: list[tuple] = field(default_factory=list)
    observed: list[int] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("scanned", "activated", "deactivated", "referenced", "to_promote_list"), 0))

    def harvest(self, rec: Rec) -> bool:
        """Test and clear the accessed bit; only a mapped page counts."""
        if rec.mapped and rec.accessed:
            rec.accessed = False
            return True
        return False

    def observe(self, rec: Rec) -> None:
        """multiclock-rw's observation: harvest the dirty bit."""
        self.observed.append(rec.pfn)
        written = rec.mapped and rec.dirty
        if written:
            rec.dirty = False
        rec.policy_data = written

    def rotate(self, kind: str, pfn: int) -> None:
        self.lists[kind].remove(pfn)
        self.lists[kind].append(pfn)

    def move(self, src: str, dst: str, pfn: int) -> None:
        self.lists[src].remove(pfn)
        self.lists[dst].append(pfn)

    def kpromoted_scan(self, src: str, budget: int, observing: bool) -> None:
        """kpromoted's inactive (edges 1, 6) or active (7/8, 10) scan."""
        lst = self.lists[src]
        while self.counts["scanned"] < budget and lst:
            rec = self.pages[lst[0]]
            self.counts["scanned"] += 1
            if observing:
                self.observe(rec)
            accessed = self.harvest(rec)
            if accessed and rec.referenced and src == "inactive":
                # Edge 6: a second reference activates the page.
                rec.referenced, rec.active = False, True
                self.move("inactive", "active", rec.pfn)
                self.counts["activated"] += 1
                self.events.append(("mm_lru_activate", rec.pfn, "kpromoted"))
            elif accessed and rec.referenced:
                # Edge 10: an active page referenced again is promoted.
                rec.active, rec.promote = False, True
                self.move("active", "promote", rec.pfn)
                self.counts["to_promote_list"] += 1
                self.events.append(("mm_promote_list_add", rec.pfn, "kpromoted"))
            elif accessed:
                # Edges 1 (inactive) and 7/8 (active): first reference.
                rec.referenced = True
                self.rotate(src, rec.pfn)
                self.counts["referenced"] += 1
            else:
                self.rotate(src, rec.pfn)

    def deactivate(self, budget: int, hooked: bool) -> None:
        """The reclaim-side active-list rebalance (edges 9, 10, memcg)."""
        lst = self.lists["active"]
        cursor = lst[0] if lst else None
        while cursor is not None and self.counts["scanned"] < budget:
            at = lst.index(cursor)
            following = lst[at + 1] if at + 1 < len(lst) else None
            rec = self.pages[cursor]
            self.counts["scanned"] += 1
            accessed = self.harvest(rec)
            if rec.heavy:
                # Memcg deactivation: an over-limit group's page loses
                # its ladder and goes to the inactive list unreferenced.
                rec.active, rec.referenced = False, False
                self.move("active", "inactive", rec.pfn)
                self.counts["deactivated"] += 1
                self.events.append(("mm_lru_deactivate", rec.pfn, "memcg"))
            elif accessed and rec.referenced and hooked:
                # Edge 10 through MULTI-CLOCK's hook.
                rec.active, rec.promote = False, True
                self.move("active", "promote", rec.pfn)
                self.counts["to_promote_list"] += 1
                self.events.append(("mm_promote_list_add", rec.pfn, "hook"))
            elif accessed:
                # Edges 7/8 (or a vanilla CLOCK second reference).
                rec.referenced = True
                self.rotate("active", rec.pfn)
                self.counts["referenced"] += 1
            elif rec.referenced:
                # Idle once: drop the flag, keep the second chance.
                rec.referenced = False
                self.rotate("active", rec.pfn)
            else:
                # Edge 9: idle twice, deactivate.
                rec.active = False
                self.move("active", "inactive", rec.pfn)
                self.counts["deactivated"] += 1
                self.events.append(("mm_lru_deactivate", rec.pfn, "vmscan"))
            cursor = following


# -- building both sides from one generated state -----------------------------

GROUPS = ("uncharged", "light", "heavy")


def page_record(byte: int) -> tuple:
    """Decode one generated byte into (list, accessed, referenced, dirty,
    mapped, memcg group); one byte per page keeps generation cheap."""
    bits = byte // 3
    return (KINDS[byte % 3], bool(bits & 1), bool(bits & 2), bool(bits & 4),
            bool(bits & 8), GROUPS[(bits >> 4) % 3])


def build(records, *, observing, memcg, traced):
    system = MemorySystem(CONFIG)
    policy = (ObservingPolicy if observing else MultiClockPolicy)(system)
    if traced:
        system.trace = Tracer(system.clock)
    processes = {name: system.create_process(name) for name in ("light", "heavy")}
    for process in processes.values():
        process.mmap_anon(0, len(records) + 1)
    if memcg:
        system.memcg = MemcgController(system)
        for name, limit in (("light", None), ("heavy", 0)):
            system.memcg.attach(processes[name], system.memcg.create_group(name, limit))
    node = system.nodes[NODE]
    store = system.pagestore
    pages: dict[int, Rec] = {}
    lists: dict[str, list[int]] = {kind: [] for kind in KINDS}
    for vpage, (kind, accessed, referenced, dirty, mapped, group) in enumerate(records):
        page = node.allocate_page(is_anon=True)
        process = processes["heavy" if group == "heavy" else "light"]
        if mapped:
            process.page_table.map(vpage, page)
        if memcg and group != "uncharged":
            system.memcg.commit_charge(page, process)
        node.lruvec.list_for(LIST_KIND[kind], True).add_head(page)
        rec = Rec(page.pfn, accessed, dirty, mapped, referenced,
                  active=kind == "active", promote=kind == "promote",
                  heavy=memcg and group == "heavy")
        store.flags[page.pfn] = rec.flag_word()
        store.pte_accessed[page.pfn] = accessed
        store.pte_dirty[page.pfn] = dirty
        pages[page.pfn] = rec
        lists[kind].append(page.pfn)
    return system, policy, Model(pages, lists)


def real_state(system):
    store = system.pagestore
    lruvec = system.nodes[NODE].lruvec
    lists = {kind: [page.pfn for page in lruvec.list_for(LIST_KIND[kind], True).iter_from_tail()]
             for kind in KINDS}
    pages = {
        pfn: (int(store.flags[pfn]), bool(store.pte_accessed[pfn]),
              bool(store.pte_dirty[pfn]), store.pages[pfn].policy_data)
        for order in lists.values() for pfn in order
    }
    return lists, pages


def model_state(model):
    pages = {
        pfn: (rec.flag_word(), rec.accessed, rec.dirty, rec.policy_data)
        for pfn, rec in model.pages.items()
    }
    return model.lists, pages


def real_events(system):
    if system.trace is None:
        return []
    return [(event.name, event.pfn, event.fields.get("scanner", event.fields.get("source")))
            for event in system.trace.buffers.get(NODE, ())]


@st.composite
def scan_cases(draw):
    # Short lists half the time: the walk's end-of-list cases (a lone
    # survivor, nothing rotated ahead of the old head) need them.
    size = draw(st.one_of(st.integers(0, 6), st.integers(0, 300)))
    records = [page_record(byte) for byte in draw(st.binary(min_size=size, max_size=size))]
    scan = draw(st.sampled_from(("inactive", "active", "deactivate")))
    n = sum(kind == ("active" if scan == "deactivate" else scan) for kind, *_ in records)
    budget = draw(st.one_of(
        st.integers(0, max(n - 1, 0)),      # below the length
        st.just(n),                         # at it
        st.integers(n + 1, 4 * n + 8),      # above it: the scan laps
    ))
    return records, scan, budget


@settings(max_examples=300)
@given(
    case=scan_cases(),
    observing=st.booleans(),
    hooked=st.booleans(),
    memcg=st.booleans(),
    traced=st.booleans(),
)
def test_scans_match_the_reference_model(case, observing, hooked, memcg, traced):
    records, scan, budget = case
    system, policy, model = build(records, observing=observing, memcg=memcg, traced=traced)
    kpromoted = policy._kpromoted[NODE]
    if scan == "inactive":
        result = kpromoted._scan_inactive(True, budget)
        model.kpromoted_scan("inactive", budget, observing)
    elif scan == "active":
        result = kpromoted._scan_active(True, budget)
        model.kpromoted_scan("active", budget, observing)
    else:
        result = deactivate_excess_active(
            system, system.nodes[NODE], True, budget,
            on_promote_list_add=policy.promote_list_added if hooked else None,
        )
        model.deactivate(budget, hooked)

    assert real_state(system) == model_state(model)
    assert {name: getattr(result, name) for name in model.counts} == model.counts
    assert (result.promoted, result.demoted, result.evicted) == (0, 0, 0)
    assert result.system_ns == system.hardware.scan_ns(model.counts["scanned"])
    if traced:
        assert real_events(system) == model.events
    if observing:
        assert policy.observed == model.observed
    if scan == "deactivate":
        # Edge-10 joins through the hook are the policy's to count.
        assert system.stats.get("multiclock.promote_list_adds") == model.counts["to_promote_list"]


# -- Nimble's promote scan ------------------------------------------------------

NIMBLE_LISTS = tuple((kind, anon) for kind in ("active", "inactive") for anon in (True, False))


@dataclass
class NimbleModel:
    """PM lists scanned head first; DRAM as free frames plus cold pages."""

    pages: dict[int, Rec]
    anon: dict[int, bool]
    pm: dict[tuple, list[int]]  # (kind, anon) -> pfns, tail first
    dram: dict[tuple, list[int]]
    room: int
    promotions: int = 0

    def scan(self, budget: int) -> int:
        scanned = 0
        for key in NIMBLE_LISTS:
            for pfn in self.pm[key][::-1][: budget - scanned]:
                scanned += 1
                rec = self.pages[pfn]
                if (rec.mapped and rec.accessed) or rec.referenced:
                    rec.accessed = rec.accessed and not rec.mapped
                    if self.promote(rec, key):
                        self.promotions += 1
                    else:
                        rec.referenced = True
        return scanned

    def promote(self, rec: Rec, key: tuple) -> bool:
        if not self.room:
            # Demand demotion: DRAM's inactive tail (anon first) moves to
            # the head of the PM inactive list, unreferenced.
            cold = self.dram[("inactive", True)] or self.dram[("inactive", False)]
            if not cold:
                return False
            victim = cold.pop(0)
            self.pages[victim].referenced = False
            self.pm[("inactive", self.anon[victim])].append(victim)
            self.room += 1
        self.room -= 1
        self.pm[key].remove(rec.pfn)
        rec.referenced, rec.promote, rec.active = False, False, True
        self.dram[("active", key[1])].append(rec.pfn)
        return True


def build_nimble(records, cold, room, budget):
    system = MemorySystem(SimulationConfig(
        dram_pages=(len(cold) + room,), pm_pages=(1024,),
        daemons=DaemonConfig(scan_budget_pages=budget),
    ))
    policy = NimblePolicy(system)
    process = system.create_process("nimble")
    process.mmap_anon(0, len(records) + len(cold) + 1)
    store = system.pagestore
    model = NimbleModel({}, {}, {key: [] for key in NIMBLE_LISTS},
                        {key: [] for key in NIMBLE_LISTS}, room)
    placed = [(0, ("inactive", anon), False, False, True) for anon in cold]
    placed += [(NODE, NIMBLE_LISTS[byte % 4], bool(byte & 4), bool(byte & 8), bool(byte & 16))
               for byte in records]
    for vpage, (node_id, key, accessed, referenced, mapped) in enumerate(placed):
        kind, anon = key
        page = system.nodes[node_id].allocate_page(is_anon=anon)
        if mapped:
            process.page_table.map(vpage, page)
        system.nodes[node_id].lruvec.list_for(LIST_KIND[kind], anon).add_head(page)
        rec = Rec(page.pfn, accessed, False, mapped, referenced,
                  active=kind == "active", promote=False, heavy=False)
        store.flags[page.pfn] = rec.flag_word()
        store.pte_accessed[page.pfn] = accessed
        model.pages[page.pfn] = rec
        model.anon[page.pfn] = anon
        (model.dram if node_id == 0 else model.pm)[key].append(page.pfn)
    return system, policy, model


def nimble_state(system):
    store = system.pagestore
    lists = {
        (node_id, key): [page.pfn for page in system.nodes[node_id].lruvec.list_for(
            LIST_KIND[key[0]], key[1]).iter_from_tail()]
        for node_id in (0, NODE) for key in NIMBLE_LISTS
    }
    pages = {pfn: (int(store.flags[pfn]), bool(store.pte_accessed[pfn]))
             for order in lists.values() for pfn in order}
    return lists, pages


@settings(max_examples=200)
@given(
    records=st.one_of(st.binary(max_size=6), st.binary(max_size=200)),
    cold=st.lists(st.booleans(), max_size=6),
    room=st.integers(0, 4),
    budget=st.integers(1, 240),
)
def test_nimble_promote_scan_matches_the_reference_model(records, cold, room, budget):
    room = max(room, not cold)  # DRAM needs a frame
    system, policy, model = build_nimble(records, cold, room, budget)
    charged = policy._promote_scan(system.nodes[NODE])
    scanned = model.scan(budget)

    lists = {(node_id, key): (model.dram if node_id == 0 else model.pm)[key]
             for node_id in (0, NODE) for key in NIMBLE_LISTS}
    pages = {pfn: (model.pages[pfn].flag_word(), model.pages[pfn].accessed)
             for order in lists.values() for pfn in order}
    assert nimble_state(system) == (lists, pages)
    assert system.stats.get("nimble.promotions") == model.promotions
    assert charged == system.hardware.scan_ns(scanned)


# -- AutoTiering-OPM's cold demotion ------------------------------------------

OPM_LISTS = tuple((kind, anon) for kind in ("inactive", "active") for anon in (True, False))


@dataclass
class OpmRec:
    history: int
    pinned: int  # 0, or the LOCKED or UNEVICTABLE bit
    referenced: bool
    active: bool

    def flag_word(self) -> int:
        word = int(PageFlags.LRU) | self.pinned
        if self.referenced:
            word |= int(PageFlags.REFERENCED)
        if self.active:
            word |= int(PageFlags.ACTIVE)
        return word


@dataclass
class OpmModel:
    """DRAM lists walked one page at a time; PM as a count of free frames."""

    pages: dict[int, OpmRec]
    anon: dict[int, bool]
    dram: dict[tuple, list[int]]  # (kind, anon) -> pfns, tail first
    pm: dict[bool, list[int]]  # anon -> PM inactive pfns, tail first
    room: int

    def demote_cold(self, target: int, budget: int) -> tuple[int, int]:
        demoted = scanned = 0
        for key in OPM_LISTS:
            for pfn in list(self.dram[key]):
                if demoted >= target or scanned >= budget:
                    break
                scanned += 1
                rec = self.pages[pfn]
                if rec.history or rec.pinned:
                    continue
                if not self.room:
                    break  # this list only: the next one is walked too
                self.room -= 1
                self.dram[key].remove(pfn)
                rec.referenced = rec.active = False
                self.pm[self.anon[pfn]].append(pfn)
                demoted += 1
        return demoted, scanned


_PINS = (0, 0, int(PageFlags.LOCKED), int(PageFlags.UNEVICTABLE))


def opm_record(value: int) -> tuple:
    """Decode one generated int into (list, history, pin, referenced):
    half the pages all-cold, a quarter of them pinned."""
    key = OPM_LISTS[value & 3]
    history = (value >> 2) & 15 if (value >> 6) & 1 else 0
    return key, history, _PINS[(value >> 7) & 3], bool((value >> 9) & 1)


def build_opm(values, room):
    system = MemorySystem(SimulationConfig(dram_pages=(len(values) + 1,), pm_pages=(64,)))
    policy = AutoTieringOPM(system)
    dram, pm = system.nodes[0], system.nodes[NODE]
    for __ in range(pm.capacity_pages - room):
        pm.allocate_page(is_anon=True)  # occupied frames on no list
    store = system.pagestore
    model = OpmModel({}, {}, {key: [] for key in OPM_LISTS}, {True: [], False: []}, room)
    for key, history, pinned, referenced in map(opm_record, values):
        kind, anon = key
        page = dram.allocate_page(is_anon=anon)
        dram.lruvec.list_for(LIST_KIND[kind], anon).add_head(page)
        rec = OpmRec(history, pinned, referenced, active=kind == "active")
        store.flags[page.pfn] = rec.flag_word()
        store.hint_history[page.pfn] = history
        model.pages[page.pfn] = rec
        model.anon[page.pfn] = anon
        model.dram[key].append(page.pfn)
    return system, policy, model


def opm_state(system):
    store = system.pagestore
    lists = {
        ("dram", key): [page.pfn for page in system.nodes[0].lruvec.list_for(
            LIST_KIND[key[0]], key[1]).iter_from_tail()]
        for key in OPM_LISTS
    }
    for anon in (True, False):
        lists[("pm", anon)] = [page.pfn for page in system.nodes[NODE].lruvec.list_for(
            ListKind.INACTIVE, anon).iter_from_tail()]
    pages = {pfn: (int(store.flags[pfn]), int(store.node[pfn]))
             for order in lists.values() for pfn in order}
    return lists, pages


@settings(max_examples=300)
@given(
    values=st.one_of(st.lists(st.integers(0, 1023), max_size=6),
                     st.lists(st.integers(0, 1023), max_size=120)),
    room=st.one_of(st.integers(0, 4), st.integers(0, 64)),
    target=st.one_of(st.integers(0, 4), st.integers(0, 130)),
    budget=st.one_of(st.integers(0, 8), st.integers(0, 140)),
)
def test_opm_cold_demotion_matches_the_reference_model(values, room, target, budget):
    system, policy, model = build_opm(values, room)
    result = policy._demote_cold(system.nodes[0], target, budget)
    assert result == model.demote_cold(target, budget)

    lists = {("dram", key): order for key, order in model.dram.items()}
    lists.update({("pm", anon): order for anon, order in model.pm.items()})
    pages = {pfn: (model.pages[pfn].flag_word(), NODE if pfn in model.pm[model.anon[pfn]] else 0)
             for order in lists.values() for pfn in order}
    assert opm_state(system) == (lists, pages)
    assert system.stats.get("opm.cold_demotions") == result[0]
    assert system.nodes[NODE].free == model.room
