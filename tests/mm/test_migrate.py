"""Unit tests for the page migration engine."""

from repro.mm.flags import PageFlags
from repro.mm.hardware import HardwareModel, MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.migrate import MAX_MIGRATE_ATTEMPTS, MigrationEngine, MigrationOutcome
from repro.mm.numa import NumaNode
from repro.sim.config import LatencyConfig
from repro.sim.stats import StatsBook
from repro.sim.vclock import VirtualClock


def make_engine(dram=8, pm=32):
    total = dram + pm
    nodes = {
        0: NumaNode.create(0, MemoryTier.DRAM, dram, total),
        1: NumaNode.create(1, MemoryTier.PM, pm, total),
    }
    clock = VirtualClock()
    stats = StatsBook()
    engine = MigrationEngine(nodes, HardwareModel(LatencyConfig()), clock, stats)
    return engine, nodes, clock, stats


def test_promotion_success():
    engine, nodes, clock, stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    outcome = engine.migrate(page, nodes[0])
    assert outcome is MigrationOutcome.MIGRATED
    assert outcome.ok
    assert page.node_id == 0
    assert nodes[0].used_pages == 1
    assert nodes[1].used_pages == 0
    assert stats.get("migrate.promotions") == 1


def test_demotion_counted_separately():
    engine, nodes, __, stats = make_engine()
    page = nodes[0].allocate_page(is_anon=True)
    assert engine.migrate(page, nodes[1]).ok
    assert stats.get("migrate.demotions") == 1
    assert stats.get("migrate.promotions") == 0


def test_migration_charges_copy_cost():
    engine, nodes, clock, __ = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    engine.migrate(page, nodes[0])
    assert clock.system_ns == LatencyConfig().page_copy_ns


def test_locked_page_refused():
    engine, nodes, clock, __ = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    page.set(PageFlags.LOCKED)
    assert engine.migrate(page, nodes[0]) is MigrationOutcome.PAGE_LOCKED
    assert page.node_id == 1
    assert clock.system_ns == 0


def test_unevictable_page_refused():
    engine, nodes, __, __stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    page.set(PageFlags.UNEVICTABLE)
    assert engine.migrate(page, nodes[0]) is MigrationOutcome.PAGE_UNEVICTABLE


def test_full_destination_refused():
    engine, nodes, __, __stats = make_engine(dram=1)
    nodes[0].allocate_page(is_anon=True)
    page = nodes[1].allocate_page(is_anon=True)
    assert engine.migrate(page, nodes[0]) is MigrationOutcome.DEST_FULL
    assert page.node_id == 1


def test_same_node_is_noop():
    engine, nodes, __, __stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    assert engine.migrate(page, nodes[1]) is MigrationOutcome.SAME_NODE


def test_migration_detaches_from_lru():
    engine, nodes, __, __stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    nodes[1].lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    assert engine.migrate(page, nodes[0]).ok
    assert page.lru is None


def test_promotion_records_timestamp_and_callback():
    engine, nodes, clock, __ = make_engine()
    clock.advance_app(12345)
    promoted = []
    engine.on_promote = promoted.append
    page = nodes[1].allocate_page(is_anon=True)
    engine.migrate(page, nodes[0])
    assert page.last_promoted_ns >= 12345
    assert promoted == [page]


def test_failed_migration_leaves_page_on_list():
    engine, nodes, __, __stats = make_engine(dram=1)
    nodes[0].allocate_page(is_anon=True)
    page = nodes[1].allocate_page(is_anon=True)
    lst = nodes[1].lruvec.list_of(page, ListKind.INACTIVE)
    lst.add_head(page)
    engine.migrate(page, nodes[0])
    assert page.lru is lst


def test_copy_failure_charges_cost_but_leaves_page():
    engine, nodes, clock, stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    engine.copy_fault_hook = lambda p, d: True
    assert engine.migrate(page, nodes[0]) is MigrationOutcome.COPY_FAILED
    assert page.node_id == 1
    assert clock.system_ns == LatencyConfig().page_copy_ns
    assert stats.get("migrate.failed_copy") == 1


def test_retry_heals_transient_copy_failure():
    engine, nodes, __, stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    fails = iter([True, True, False])
    engine.copy_fault_hook = lambda p, d: next(fails)
    assert engine.migrate_with_retry(page, nodes[0]).ok
    assert page.node_id == 0
    assert stats.get("migrate.attempts") == 3
    assert stats.get("migrate.retries") == 2
    assert stats.get("migrate.retry_succeeded") == 1
    assert stats.get("migrate.retries_exhausted") == 0


def test_retry_backoff_is_exponential_virtual_time():
    engine, nodes, clock, __stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    fails = iter([True, True, False])
    engine.copy_fault_hook = lambda p, d: next(fails)
    engine.migrate_with_retry(page, nodes[0])
    latency = LatencyConfig()
    # Three copy attempts charged, plus backoffs of base and 2*base.
    expected = 3 * latency.page_copy_ns + 3 * latency.migrate_backoff_ns
    assert clock.system_ns == expected


def test_retry_gives_up_after_kernel_bound():
    engine, nodes, __, stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    engine.copy_fault_hook = lambda p, d: True
    outcome = engine.migrate_with_retry(page, nodes[0])
    assert outcome is MigrationOutcome.COPY_FAILED
    assert page.node_id == 1
    assert stats.get("migrate.attempts") == MAX_MIGRATE_ATTEMPTS
    assert stats.get("migrate.retries") == MAX_MIGRATE_ATTEMPTS - 1
    assert stats.get("migrate.retries_exhausted") == 1
    assert stats.get("migrate.retry_succeeded") == 0


def test_retry_without_injector_is_single_attempt():
    """Faults-off bit-identity: no hook means no retry loop, no backoff."""
    engine, nodes, clock, stats = make_engine(dram=1)
    nodes[0].allocate_page(is_anon=True)
    page = nodes[1].allocate_page(is_anon=True)
    assert engine.migrate_with_retry(page, nodes[0]) is MigrationOutcome.DEST_FULL
    assert stats.get("migrate.attempts") == 1
    assert stats.get("migrate.retries") == 0
    assert clock.system_ns == 0


def test_armed_hook_that_never_fires_is_single_attempt():
    """An armed copy-fault hook that never fires changes nothing: a full
    destination (the kernel's -ENOMEM) gets one attempt and no backoff,
    exactly as with no hook."""
    engine, nodes, clock, stats = make_engine(dram=1)
    nodes[0].allocate_page(is_anon=True)
    page = nodes[1].allocate_page(is_anon=True)
    engine.copy_fault_hook = lambda p, d: False  # armed but never fires
    assert engine.migrate_with_retry(page, nodes[0]) is MigrationOutcome.DEST_FULL
    assert stats.get("migrate.attempts") == 1
    assert stats.get("migrate.retries") == 0
    assert stats.get("migrate.retries_exhausted") == 0
    assert clock.system_ns == 0


def test_permanent_failure_never_retried():
    engine, nodes, __, stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    page.set(PageFlags.LOCKED)
    engine.copy_fault_hook = lambda p, d: True
    assert engine.migrate_with_retry(page, nodes[0]) is MigrationOutcome.PAGE_LOCKED
    assert stats.get("migrate.attempts") == 1
    assert stats.get("migrate.retries") == 0


def test_transient_classification():
    """Only a failed copy (the kernel's -EAGAIN) is retried; every other
    refusal ends the call after one attempt, even with an always-failing
    copy hook armed."""
    refusals = {
        MigrationOutcome.PAGE_LOCKED: lambda page, nodes: page.set(PageFlags.LOCKED),
        MigrationOutcome.PAGE_UNEVICTABLE: lambda page, nodes: page.set(PageFlags.UNEVICTABLE),
        MigrationOutcome.DEST_FULL: lambda page, nodes: nodes[0].allocate_page(is_anon=True),
    }
    for expected, refuse in refusals.items():
        engine, nodes, __, stats = make_engine(dram=1)
        page = nodes[1].allocate_page(is_anon=True)
        refuse(page, nodes)
        engine.copy_fault_hook = lambda p, d: True
        assert engine.migrate_with_retry(page, nodes[0]) is expected
        assert stats.get("migrate.attempts") == 1
    engine, nodes, __, stats = make_engine()
    page = nodes[1].allocate_page(is_anon=True)
    engine.copy_fault_hook = lambda p, d: True
    assert engine.migrate_with_retry(page, nodes[1]) is MigrationOutcome.SAME_NODE
    assert stats.get("migrate.attempts") == 1
    assert engine.migrate_with_retry(page, nodes[0]) is MigrationOutcome.COPY_FAILED
    assert stats.get("migrate.attempts") == 1 + MAX_MIGRATE_ATTEMPTS
