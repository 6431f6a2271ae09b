"""The one access driver against the per-access definition of an access.

``Machine.touch_batch`` charges column blocks in place and calls
``MemorySystem.touch`` only for events: faults, hint faults that may
move a page, and supervised positions.  A hint fault that moves no page
is charged in place too.  The reference is the obviously-correct loop: one
``Machine.touch`` per access.  For fixed-seed workloads both must end
with the same counter snapshot, the same virtual clock (all three
buckets), and daemons fired at the same virtual times.

The metamorphic check cuts one access stream into blocks at arbitrary
points — length-1 blocks, an all-slow block, blocks straddling daemon
deadlines — under hint faults (CPM, AutoNUMA, and OPM, whose handler
demotes other pages), memory-mode (every position slow),
supervised regions, an unmapped vpage, a PM slowdown window opening
mid-block and a memcg limit.  Every cutting must end bit-identical to
the per-access loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mixed_supervision import MixedSupervisionWorkload

import repro.machine as machine_module
from repro.faults import FaultPlan, PmSlowdown
from repro.machine import AccessBlock, Machine
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.memcg import ProcessKilledError
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.sim.events import Daemon
from repro.workloads.multitenant import MultiTenantWorkload
from repro.workloads.synthetic import ShiftingHotSetWorkload, ZipfWorkload

POLICIES = ["multiclock", "static", "nimble", "memory-mode", "autonuma", "autotiering-cpm"]


WORKLOADS = {
    "zipf": lambda: ZipfWorkload(600, 6000, seed=11, write_ratio=0.3),
    "shifting": lambda: ShiftingHotSetWorkload(
        600, 6000, seed=11, write_ratio=0.3, phase_ops=1500
    ),
    "mixed-supervision": lambda: MixedSupervisionWorkload(6000, seed=11),
}


def _config(**overrides) -> SimulationConfig:
    settings_ = dict(
        dram_pages=(128,),
        pm_pages=(1024,),
        daemons=DaemonConfig(
            kpromoted_interval_s=0.001,
            kswapd_interval_s=0.001,
            hint_scan_interval_s=0.001,
        ),
        seed=7,
    )
    settings_.update(overrides)
    return SimulationConfig(**settings_)


def _per_access(machine: Machine, blocks) -> None:
    """One ``Machine.touch`` per row of ``blocks``."""
    for block in blocks:
        rows = zip(block.vpage.tolist(), block.write.tolist(), block.lines.tolist())
        for vpage, write, lines in rows:
            machine.touch(block.process, vpage, is_write=write, lines=lines)


def _drive(policy: str, workload_key: str, *, batched: bool):
    machine = Machine(_config(), policy)
    workload = WORKLOADS[workload_key]()
    workload.setup(machine)
    if batched:
        machine.touch_batch(workload.blocks())
    else:
        _per_access(machine, workload.blocks())
    clock = machine.clock
    return machine, (
        machine.stats.snapshot(),
        clock.now_ns,
        clock.app_ns,
        clock.system_ns,
    )


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", POLICIES)
def test_batched_driver_is_bit_identical(policy: str, workload_key: str):
    __, per_access = _drive(policy, workload_key, batched=False)
    __, batched = _drive(policy, workload_key, batched=True)
    assert batched[0] == per_access[0], "counter snapshots diverged"
    assert batched[1:] == per_access[1:], "virtual clocks diverged"


@pytest.mark.parametrize("policy", ["multiclock", "static"])
def test_daemons_fire_at_same_virtual_times(policy: str):
    """The driver must not shift or drop any wakeup."""

    def run(batched: bool) -> list[int]:
        machine = Machine(_config(), policy)
        fire_times: list[int] = []
        machine.scheduler.register(
            Daemon("probe", 0.0005, lambda now: fire_times.append(now) or 0)
        )
        workload = WORKLOADS["zipf"]()
        workload.setup(machine)
        if batched:
            machine.touch_batch(workload.blocks())
        else:
            _per_access(machine, workload.blocks())
        return fire_times

    per_access = run(batched=False)
    batched = run(batched=True)
    assert per_access, "probe daemon never fired — workload too small"
    assert batched == per_access


@pytest.mark.parametrize("policy", ["multiclock", "autotiering-cpm"])
def test_remote_socket_charges_match_per_access(policy: str):
    """Two sockets, two tenants pinned one per socket: the sweep's
    remote-latency multiplier and remote counter match the scalar path."""

    def run(batched: bool):
        config = _config(dram_pages=(64, 64), pm_pages=(512, 512), sockets=2)
        machine = Machine(config, policy)
        workload = MultiTenantWorkload(
            [ZipfWorkload(300, 3000, seed=3, write_ratio=0.3),
             ZipfWorkload(300, 3000, seed=4, write_ratio=0.3)],
            home_sockets=[0, 1], batch=64,
        )
        workload.setup(machine)
        if batched:
            machine.touch_batch(workload.blocks())
        else:
            _per_access(machine, workload.blocks())
        clock = machine.clock
        return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns

    per_access = run(batched=False)
    assert per_access[0]["accesses.remote"] > 0
    assert run(batched=True) == per_access


def _count_touches(machine: Machine) -> list[int]:
    """Count ``MemorySystem.touch`` calls on ``machine`` from now on."""
    system = machine.system
    touch = system.touch
    calls = [0]

    def counted(process, vpage, **kwargs):
        calls[0] += 1
        return touch(process, vpage, **kwargs)

    system.touch = counted
    return calls


def _count_loud_hints(machine: Machine) -> list[int]:
    """Count the hint faults handed to ``on_hint_fault`` from now on:
    the ones that are events.  A quiet one moves no page and is charged
    by the driver."""
    policy = machine.policy
    handler = policy.on_hint_fault
    calls = [0]

    def counted(page):
        calls[0] += 1
        return handler(page)

    policy.on_hint_fault = counted
    return calls


def _events(stats: dict, loud_hints: int) -> int:
    """``MemorySystem.touch`` calls of a run with no supervised region."""
    return stats["faults.minor"] + stats["faults.major"] + loud_hints


@pytest.mark.parametrize("sink", ["tracing", "metrics", "memcg"])
def test_arming_a_sink_never_moves_a_position_between_paths(sink: str):
    """The same positions reach ``MemorySystem.touch`` whether or not an
    observability sink (and its daemon) is armed."""

    def events(armed: bool) -> list[int]:
        machine = Machine(_config(), "autotiering-cpm")
        if armed and sink == "metrics":
            # A sampler off the policy daemons' cadence cuts swept runs.
            machine.enable_metrics(sample_interval_s=0.00037)
        elif armed:
            getattr(machine, f"enable_{sink}")()
        system = machine.system
        touch = system.touch
        log: list[int] = []

        def counted(process, vpage, **kwargs):
            log.append(system._c_accesses_total.n)
            return touch(process, vpage, **kwargs)

        system.touch = counted
        workload = WORKLOADS["shifting"]()
        workload.setup(machine)
        machine.touch_batch(workload.blocks())
        return log

    off = events(armed=False)
    assert 0 < len(off) < 6000
    assert events(armed=True) == off


@pytest.mark.parametrize("policy", ["static", "multiclock"])
def test_warm_pass_never_detours(policy: str):
    """Once every page is mapped, no position reaches ``MemorySystem.touch``.

    The cold pass faults its ~2,000 pages in (one call per fault); the
    warm pass over the same stream makes none.  Losing inline charging
    would send all 60,000 positions through ``MemorySystem.touch``.
    """
    machine = Machine(
        SimulationConfig(dram_pages=(1024,), pm_pages=(8192,), seed=42), policy
    )
    workload = ZipfWorkload(2000, 60_000, seed=42, write_ratio=0.2)
    workload.setup(machine)
    batches = list(workload.numeric_batches())
    calls = _count_touches(machine)
    machine.touch_batch_array(workload.process, batches, lines=workload.lines)
    cold = calls[0]
    assert cold > 0, "cold pass faulted nothing in"
    machine.touch_batch_array(workload.process, batches, lines=workload.lines)
    assert calls[0] - cold == 0, (
        f"warm pass detoured {calls[0] - cold} of 60,000 positions"
    )


@pytest.mark.parametrize("policy", ["nimble", "autotiering-cpm"])
def test_cold_pass_touches_once_per_fault(policy: str):
    """``MemorySystem.touch`` runs exactly once per fault or loud hint fault.

    A cold Zipf pass with no supervised region: every call is a first
    touch, a swap refault or a poisoned PTE whose hint fault may move a
    page, and no fast position in between takes the per-access path.
    Under nimble, which takes no hint faults, that is the 1,408 minor
    faults alone.  Under CPM most hint faults are quiet (a DRAM page, or
    a PM page while DRAM is full) and the driver charges them itself.
    """
    config = _config(dram_pages=(256,), pm_pages=(2048,), seed=42)
    machine = Machine(config, policy)
    workload = ZipfWorkload(1500, 30_000, seed=42, write_ratio=0.2)
    workload.setup(machine)
    batches = list(workload.numeric_batches())
    calls = _count_touches(machine)
    loud = _count_loud_hints(machine)
    machine.touch_batch_array(workload.process, batches, lines=workload.lines)
    stats = machine.stats.snapshot()
    assert calls[0] == _events(stats, loud[0])
    if policy == "nimble":
        assert calls[0] == 1408
    else:
        assert 0 < loud[0] < stats["faults.hint"], "no quiet hint fault"


@pytest.mark.parametrize("column_run", [1, 1 << 30])
def test_column_run_moves_only_host_time(monkeypatch, column_run: int):
    """Sweeping every run in columns, or every run in the Python loop,
    ends bit-identical to the per-access loop with the same events,
    quiet hint faults charged in both."""
    monkeypatch.setattr(machine_module, "_COLUMN_RUN", column_run)
    __, per_access = _drive("autotiering-cpm", "shifting", batched=False)
    machine = Machine(_config(), "autotiering-cpm")
    workload = WORKLOADS["shifting"]()
    workload.setup(machine)
    calls = _count_touches(machine)
    loud = _count_loud_hints(machine)
    machine.touch_batch(workload.blocks())
    clock = machine.clock
    stats = machine.stats.snapshot()
    assert stats == per_access[0]
    assert (clock.now_ns, clock.app_ns, clock.system_ns) == per_access[1:]
    assert calls[0] == _events(stats, loud[0])
    assert loud[0] < stats["faults.hint"], "no quiet hint fault"


def test_touch_batch_returns_access_and_operation_counts():
    machine = Machine(_config(), "static")
    workload = WORKLOADS["zipf"]()
    workload.setup(machine)
    accesses, operations = machine.touch_batch(workload.blocks())
    assert accesses == 6000
    assert operations == 6000  # synthetic streams mark every access


# -- metamorphic: any cutting of a stream into blocks ---------------------------

N_ACCESSES = 1500
#: The leading first touches of distinct pages: an all-slow stretch.
N_COLD = 40
UNMAPPED_AT = 1100
SCENARIOS = (
    "autotiering-cpm", "autotiering-opm", "autonuma", "memory-mode", "supervised",
    "unmapped", "pm-slowdown", "memcg-limit",
)


def _stream(scenario: str) -> list[tuple[int, int, bool, int, bool]]:
    """``(process, vpage, write, lines, op_boundary)`` rows; process 0
    runs in stretches long enough for the column sweep."""
    rng = np.random.default_rng(17)
    rows = [(0, vpage, False, 1, True) for vpage in range(N_COLD)]
    proc = 0
    while len(rows) < N_ACCESSES:
        proc = 1 - proc if rng.random() < 0.04 else proc
        span = 300 if proc == 0 else 200
        vpage = int(rng.zipf(1.2)) % span
        if scenario == "supervised" and proc == 0 and rng.random() < 0.2:
            vpage = 1000 + vpage % 100
        rows.append(
            (proc, vpage, bool(rng.random() < 0.3), int(rng.integers(1, 9)),
             bool(rng.random() < 0.6))
        )
    if scenario == "unmapped":
        rows[UNMAPPED_AT] = (0, 5000, False, 1, True)
    return rows


def _machine(scenario: str):
    named = ("autotiering-cpm", "autotiering-opm", "autonuma", "memory-mode")
    policy = {name: name for name in named}
    daemons = DaemonConfig(
        kpromoted_interval_s=0.0005,
        kswapd_interval_s=0.0005,
        hint_scan_interval_s=0.0005,
    )
    machine = Machine(
        _config(dram_pages=(64,), pm_pages=(512,), daemons=daemons, swap_pages=4096),
        policy.get(scenario, "multiclock"),
    )
    fire_times: list[int] = []
    machine.scheduler.register(
        Daemon("probe", 0.0001, lambda now: fire_times.append(now) or 0)
    )
    if scenario == "pm-slowdown":
        machine.install_faults(FaultPlan(seed=3, events=(
            PmSlowdown(start_s=0.001, end_s=0.002, multiplier=3.0),
        )))
    procs = [machine.create_process("a"), machine.create_process("b")]
    procs[0].mmap_anon(0, 300)
    procs[1].mmap_anon(0, 200)
    if scenario == "supervised":
        procs[0].mmap_anon(1000, 100, supervised=True)
    if scenario == "memcg-limit":
        memcg = machine.enable_memcg()
        memcg.attach(procs[0], memcg.create_group("a", limit_pages=150))
    return machine, procs, fire_times


def _outcome(machine: Machine, fire_times: list[int], error: Exception | None):
    clock = machine.clock
    return {
        "stats": machine.stats.snapshot(),
        "clock": (clock.now_ns, clock.app_ns, clock.system_ns),
        "fires": list(fire_times),
        "error": None if error is None else type(error).__name__,
    }


_REFERENCE: dict[str, dict] = {}


def _reference(scenario: str) -> dict:
    if scenario not in _REFERENCE:
        machine, procs, fire_times = _machine(scenario)
        error = None
        try:
            for proc, vpage, write, lines, __ in _stream(scenario):
                machine.touch(procs[proc], vpage, is_write=write, lines=lines)
        except LookupError as exc:
            error = exc
        _REFERENCE[scenario] = _outcome(machine, fire_times, error)
    return _REFERENCE[scenario]


def _blocks(procs, rows, cuts: set[int], *, carried: bool = False):
    """Blocks cut at ``cuts`` and wherever the process changes; with
    ``carried`` each block brings the slots its producer resolved."""
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or i in cuts or rows[i][0] != rows[start][0]:
            __, vpage, write, lines, boundary = zip(*rows[start:i])
            process = procs[rows[start][0]]
            vpage = np.array(vpage, dtype=np.int64)
            table = process.page_table
            yield AccessBlock(
                process,
                vpage,
                np.array(write, dtype=bool),
                np.array(lines, dtype=np.int64),
                np.array(boundary, dtype=bool),
                slots=table.resolve(vpage) if carried else None,
                regions=table.n_regions,
            )
            start = i


@settings(max_examples=4, deadline=None, derandomize=True)
@given(cuts=st.sets(st.integers(1, N_ACCESSES - 1), max_size=60))
@example(cuts=set())
@example(cuts=set(range(1, N_ACCESSES)))  # every block of length 1
@example(cuts={N_COLD})  # the cold prefix alone: an all-slow block
@example(cuts=set(range(UNMAPPED_AT - 3, UNMAPPED_AT + 3)))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_any_cutting_into_blocks_matches_per_access(scenario, cuts):
    expected = _reference(scenario)
    machine, procs, fire_times = _machine(scenario)
    error = None
    try:
        machine.touch_batch(_blocks(procs, _stream(scenario), cuts))
    except LookupError as exc:
        error = exc
    assert _outcome(machine, fire_times, error) == expected


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_blocks_carrying_slots_match_per_access(scenario):
    """Carried slots only save the resolve: every 97th position cut."""
    expected = _reference(scenario)
    machine, procs, fire_times = _machine(scenario)
    error = None
    cuts = set(range(97, N_ACCESSES, 97))
    try:
        machine.touch_batch(_blocks(procs, _stream(scenario), cuts, carried=True))
    except LookupError as exc:
        error = exc
    assert _outcome(machine, fire_times, error) == expected


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_scenario_reaches_its_path(scenario):
    """Guard the guards: each scenario exercises what it is named for."""
    outcome = _reference(scenario)
    stats = outcome["stats"]
    assert len(outcome["fires"]) > 5
    if scenario in ("autotiering-cpm", "autonuma"):
        assert stats["faults.hint"] > 0
        assert stats["hint.promotions"] > 0
    if scenario == "autotiering-opm":
        # The hint-fault handler promotes, and demotes other pages to
        # make room, in the middle of a block.
        assert stats["hint.promotions"] > 0
        assert stats["opm.cold_demotions"] > 0
    if scenario == "unmapped":
        assert outcome["error"] == "LookupError"
        assert stats["accesses.total"] == UNMAPPED_AT
    else:
        assert outcome["error"] is None
    if scenario == "pm-slowdown":
        window = (1_000_000, 2_000_000)
        assert window[0] < outcome["clock"][0], "the run ends before the window"
        assert any(window[0] <= t < window[1] for t in outcome["fires"])
    if scenario == "memcg-limit":
        assert stats["memcg.limit_reclaims"] > 0


# -- per-position charges ------------------------------------------------------


def _asking(blocks, seen: list):
    """``blocks``, each asking for charges (-1 until charged), kept in
    ``seen`` as the driver reads them."""
    for block in blocks:
        block.charges = np.full(len(block), -1, dtype=np.int64)
        seen.append(block)
        yield block


def _charged(seen) -> tuple[list[int], np.ndarray]:
    """The processed positions' charges in stream order, and the rest."""
    done = np.concatenate([block.charges[:block.done] for block in seen])
    rest = np.concatenate([block.charges[block.done:] for block in seen])
    return done.tolist(), rest


def _per_access_charges(scenario: str) -> list[int]:
    """What ``Machine.touch`` returns for each access of the stream."""
    machine, procs, __ = _machine(scenario)
    charges: list[int] = []
    try:
        for proc, vpage, write, lines, __ in _stream(scenario):
            charges.append(
                machine.touch(procs[proc], vpage, is_write=write, lines=lines)
            )
    except LookupError:
        pass
    return charges


@pytest.mark.parametrize("column_run", [1, machine_module._COLUMN_RUN, 1 << 30])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_position_records_its_per_access_charge(monkeypatch, scenario, column_run):
    """Faults, hint faults, Memory-mode's every-position events, deadline
    splits (the probe fires every 100 us), and runs swept in columns or
    looped in Python: each position's charge is its ``Machine.touch``
    return, and a position the driver never reached keeps its -1."""
    expected = _per_access_charges(scenario)
    monkeypatch.setattr(machine_module, "_COLUMN_RUN", column_run)
    machine, procs, __ = _machine(scenario)
    seen: list[AccessBlock] = []
    cuts = set(range(97, N_ACCESSES, 97))
    try:
        machine.touch_batch(_asking(_blocks(procs, _stream(scenario), cuts), seen))
    except LookupError:
        pass
    charged, rest = _charged(seen)
    assert charged == expected
    assert (rest == -1).all()


def test_remote_positions_record_their_per_access_charge():
    """Two sockets: a remote position's charge carries the multiplier."""

    def run(batched: bool) -> list[int]:
        config = _config(dram_pages=(64, 64), pm_pages=(512, 512), sockets=2)
        machine = Machine(config, "multiclock")
        workload = MultiTenantWorkload(
            [ZipfWorkload(300, 3000, seed=3, write_ratio=0.3),
             ZipfWorkload(300, 3000, seed=4, write_ratio=0.3)],
            home_sockets=[0, 1], batch=64,
        )
        workload.setup(machine)
        if batched:
            seen: list[AccessBlock] = []
            machine.touch_batch(_asking(workload.blocks(), seen))
            return _charged(seen)[0]
        charges = []
        for block in workload.blocks():
            rows = zip(block.vpage.tolist(), block.write.tolist(), block.lines.tolist())
            for vpage, write, lines in rows:
                charges.append(
                    machine.touch(block.process, vpage, is_write=write, lines=lines)
                )
        assert machine.stats.snapshot()["accesses.remote"] > 0
        return charges

    assert run(batched=True) == run(batched=False)


def test_a_deadline_splits_a_column_sweep_between_charges():
    """A daemon due mid-sweep runs after the position that reaches its
    deadline; the charges on both sides are the per-access ones."""

    def run(batched: bool):
        machine = Machine(_config(), "static")
        fires: list[int] = []
        process = machine.create_process("p")
        process.mmap_anon(0, 32)
        for vpage in range(32):
            machine.touch(process, vpage)
        start = machine.clock.now_ns
        vpage = np.arange(400, dtype=np.int64) % 32
        block = AccessBlock.numeric(process, vpage, vpage % 3 == 0, 2)
        machine.scheduler.register(
            Daemon("probe", 0.00001, lambda now: fires.append(now - start) or 0)
        )
        if batched:
            block.charges = np.full(len(block), -1, dtype=np.int64)
            calls = _count_touches(machine)
            machine.touch_batch([block])
            assert calls[0] == 0, "the warm block took an event"
            return block.charges.tolist(), fires
        return [machine.touch(process, v, is_write=w, lines=2)
                for v, w in zip(vpage.tolist(), (vpage % 3 == 0).tolist())], fires

    charges, fires = run(batched=True)
    assert len(fires) >= 2 and charges[0] > 0
    assert (charges, fires) == run(batched=False)


def test_a_block_that_asks_for_no_charges_is_left_untouched():
    machine = Machine(_config(), "autotiering-cpm")
    workload = WORKLOADS["shifting"]()
    workload.setup(machine)
    blocks = list(workload.blocks())
    before = [
        (block.vpage.copy(), block.write.copy(), block.lines.copy(),
         block.op_boundary.copy())
        for block in blocks
    ]
    machine.touch_batch(blocks)
    for block, columns in zip(blocks, before):
        assert block.charges is None
        assert block.done == len(block)
        for column, kept in zip(
            (block.vpage, block.write, block.lines, block.op_boundary), columns
        ):
            assert np.array_equal(column, kept)


# -- quiet hint faults ---------------------------------------------------------
#
# A hint fault that moves no page is charged by the driver, not stepped
# as an event: on a DRAM page, and, for CPM and AutoNUMA, on a PM page
# while no DRAM node has a free frame.  Each case below changes which
# hint faults are quiet in the middle of a block.


def _place(machine: Machine, process, vpage: int, node_id: int) -> None:
    """Map ``vpage`` to a new page on ``node_id``, poisoned."""
    node = machine.system.nodes[node_id]
    page = node.allocate_page(is_anon=True)
    process.page_table.map(vpage, page)
    node.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    process.page_table.poison(vpage)


def _demote_one(machine: Machine):
    """A daemon body that moves DRAM's inactive tail page to PM."""
    system = machine.system

    def run(now: int) -> int:
        dram, pm = system.nodes[0], system.nodes[1]
        page = dram.lruvec.list_for(ListKind.INACTIVE, True).tail
        if page is not None and system.migrator.migrate_with_retry(page, pm).ok:
            pm.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        return 0

    return run


def _quiet_case(case: str):
    """``(machine, process, rows, fires)`` for one case, built alike for
    the per-access loop and the driver."""
    policy = {"opm-demote": "autotiering-opm", "autonuma": "autonuma"}.get(
        case, "autotiering-cpm"
    )
    daemons = DaemonConfig(
        kpromoted_interval_s=1.0, hint_scan_interval_s=1.0,
        kswapd_interval_s=0.00002 if case == "opm-demote" else 1.0,
    )
    machine = Machine(
        _config(dram_pages=(32,), pm_pages=(512,), daemons=daemons), policy
    )
    process = machine.create_process("p")
    process.mmap_anon(0, 300)
    # A quiet hint fault costs 2.5 us: a probe every 11 us leaves a few
    # in each run between deadlines, so a run holds a page's duplicates.
    fires: list[int] = []
    machine.scheduler.register(Daemon(
        "probe", 0.000011 if case == "straddle" else 0.000002,
        lambda now: fires.append(now) or 0,
    ))
    rng = np.random.default_rng(5)
    if case == "straddle":
        # DRAM pages only, all poisoned again every 30 us: each page's
        # positions straddle runs, column sweeps and deadlines.
        for vpage in range(24):
            _place(machine, process, vpage, 0)

        def poison_all(now: int) -> int:
            for vpage in range(24):
                process.page_table.poison(vpage)
            return 0

        machine.scheduler.register(Daemon("poisoner", 0.00003, poison_all))
        vpages = rng.integers(0, 24, 600)
    else:
        # DRAM holds 24 pages (8 frames free, or none after a fill);
        # 100 PM pages and 50 unmapped vpages that fault in.
        for vpage in range(24):
            _place(machine, process, vpage, 0)
        for vpage in range(100, 200):
            _place(machine, process, vpage, 1)
        if case in ("dram-frees", "autonuma", "opm-demote"):
            for vpage in range(24, 32):
                _place(machine, process, vpage, 0)
        if case in ("dram-frees", "autonuma"):
            machine.scheduler.register(Daemon("freer", 0.00002, _demote_one(machine)))
        pool = np.concatenate([np.arange(32), np.arange(100, 200), np.arange(250, 300)])
        vpages = rng.choice(pool, size=900)
        if case == "opm-demote":
            # The DRAM pages first: one quiet run that opm-demote cuts.
            vpages[:300] = np.tile(np.arange(32), 10)[:300]
    rows = [
        (int(v), bool(w), int(n))
        for v, w, n in zip(vpages, rng.random(len(vpages)) < 0.3,
                           rng.integers(1, 5, len(vpages)))
    ]
    return machine, process, rows, fires


QUIET_CASES = ("dram-fills", "dram-frees", "opm-demote", "straddle", "autonuma")

_QUIET_REFERENCE: dict[str, tuple] = {}


def _hint_class(machine: Machine, page) -> str:
    system = machine.system
    if system.tier_of(page) is MemoryTier.DRAM:
        return "dram"
    return "pm-room" if any(node.free for node in system.dram_nodes()) else "pm-full"


def _quiet_reference(case: str) -> tuple:
    """The per-access loop's outcome and charges, and each hint fault's
    ``(class, pfn)`` in order."""
    if case not in _QUIET_REFERENCE:
        machine, process, rows, fires = _quiet_case(case)
        handler = machine.policy.on_hint_fault
        hints: list[tuple[str, int]] = []

        def logged(page):
            hints.append((_hint_class(machine, page), page.pfn))
            return handler(page)

        machine.policy.on_hint_fault = logged
        dram_at_start = {
            page.pfn for page in machine.system.pagestore.pages
            if machine.system.tier_of(page) is MemoryTier.DRAM
        }
        charges = [
            machine.touch(process, v, is_write=w, lines=n) for v, w, n in rows
        ]
        _QUIET_REFERENCE[case] = (
            _outcome(machine, fires, None), charges, hints, dram_at_start
        )
    return _QUIET_REFERENCE[case]


@pytest.mark.parametrize("column_run", [1, machine_module._COLUMN_RUN, 1 << 30])
@pytest.mark.parametrize("case", QUIET_CASES)
def test_quiet_hint_faults_match_per_access(monkeypatch, case, column_run):
    """Counters, clocks, daemon fire times and every position's charge,
    ``hint_fault_ns`` of the quiet ones included, equal the per-access
    loop's; only the loud hint faults reach ``MemorySystem.touch``."""
    expected, expected_charges, __, __ = _quiet_reference(case)
    monkeypatch.setattr(machine_module, "_COLUMN_RUN", column_run)
    machine, process, rows, fires = _quiet_case(case)
    calls = _count_touches(machine)
    loud = _count_loud_hints(machine)
    seen: list[AccessBlock] = []
    blocks = (
        AccessBlock(
            process, np.array(v, dtype=np.int64), np.array(w, dtype=bool),
            np.array(n, dtype=np.int64), np.ones(len(v), dtype=bool),
        )
        for v, w, n in (zip(*rows[i:i + 150]) for i in range(0, len(rows), 150))
    )
    machine.touch_batch(_asking(blocks, seen))
    assert _outcome(machine, fires, None) == expected
    assert _charged(seen)[0] == expected_charges
    stats = expected["stats"]
    assert calls[0] == _events(stats, loud[0])
    assert loud[0] < stats["faults.hint"], "no quiet hint fault"


@pytest.mark.parametrize("case", QUIET_CASES)
def test_each_quiet_case_reaches_its_path(case):
    """Guard the guards, on the per-access run's hint faults."""
    outcome, charges, hints, dram_at_start = _quiet_reference(case)
    classes = [cls for cls, __ in hints]
    assert len(outcome["fires"]) > 20
    hint_ns = Machine(_config(), "static").system.hardware.hint_fault_ns()
    assert sum(charge >= hint_ns for charge in charges) >= len(hints)
    if case == "dram-fills":
        # Promotions fill DRAM mid-block, then PM hint faults are quiet.
        assert "pm-room" in classes
        assert "pm-full" in classes[classes.index("pm-room"):]
    if case in ("dram-frees", "autonuma"):
        # The freer's frame turns a quiet PM hint fault loud again.
        assert "pm-full" in classes
        assert "pm-room" in classes[classes.index("pm-full"):]
        assert outcome["stats"]["hint.promotions"] > 8
    if case == "opm-demote":
        # opm-demote moved a DRAM page, quiet when the block began, to
        # PM before its first access.
        assert any(cls != "dram" and pfn in dram_at_start for cls, pfn in hints)
        assert outcome["stats"]["opm.cold_demotions"] > 0
    if case == "straddle":
        assert set(classes) == {"dram"}
        assert len(hints) > 4 * 24


# -- an event that raises ------------------------------------------------------


@pytest.mark.parametrize("error", [LookupError, ProcessKilledError])
def test_a_raising_event_leaves_done_at_its_position(error):
    """A ``Machine.touch`` that raises mid-block (an unmapped vpage, or a
    fault of a tenant the OOM killer took) ends the block there: ``done``
    is the raising position and every earlier position is charged."""
    n = 600

    def run(batched: bool):
        machine = Machine(_config(), "multiclock")
        process = machine.create_process("a")
        process.mmap_anon(0, 64)
        vpage = np.arange(n, dtype=np.int64) % 64
        if error is LookupError:
            vpage[400] = 5000
        else:
            # A one-shot kill of the tenant's group, due among the warm
            # positions; its next access faults and raises.
            memcg = machine.enable_memcg()
            group = memcg.create_group("a")
            memcg.attach(process, group)
            machine.scheduler.register(Daemon(
                "killer", 0.00008, lambda now: memcg.kill(group) * 0, one_shot=True,
            ))
        block = AccessBlock.numeric(process, vpage, vpage % 5 == 0, 1)
        charges: list[int] = []
        with pytest.raises(error):
            if batched:
                block.charges = np.full(n, -1, dtype=np.int64)
                machine.touch_batch([block])
            else:
                for v, w in zip(vpage.tolist(), block.write.tolist()):
                    charges.append(machine.touch(process, v, is_write=w))
        clock = machine.clock
        outcome = (machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns)
        if batched:
            assert (block.charges[block.done:] == -1).all()
            return block.done, block.charges[:block.done].tolist(), outcome
        return len(charges), charges, outcome

    done, charges, outcome = run(batched=True)
    assert 64 < done < n
    if error is LookupError:
        assert done == 400
    assert (done, charges, outcome) == run(batched=False)
