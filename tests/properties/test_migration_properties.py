"""Property-based frame-conservation invariants for migration/discard."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.mm.lruvec import ListKind
from repro.sim.config import SimulationConfig

CONFIG = SimulationConfig(dram_pages=(24, 24), pm_pages=(96, 96), sockets=2)


def build_machine(resident):
    machine = Machine(CONFIG, "static")
    process = machine.create_process()
    process.mmap_anon(0, 256)
    pages = []
    for vpage in range(resident):
        machine.touch(process, vpage)
        pages.append(machine.system.pagestore.pages[process.page_table.pfn(vpage)])
    return machine, process, pages


def total_frames(machine):
    return sum(node.used_pages for node in machine.system.nodes.values())


@given(
    resident=st.integers(min_value=4, max_value=60),
    moves=st.lists(
        st.tuples(st.integers(0, 59), st.integers(0, 3)), max_size=120
    ),
)
@settings(max_examples=60, deadline=None)
def test_migration_conserves_frames_and_mappings(resident, moves):
    machine, process, pages = build_machine(resident)
    frames_before = total_frames(machine)
    for page_idx, node_id in moves:
        if page_idx >= resident:
            continue
        page = pages[page_idx]
        dest = machine.system.nodes[node_id]
        machine.system.migrator.migrate(page, dest)
        if page.lru is None:  # migrated: policy-side relink
            dest.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
    # Exactly as many frames in use as before, wherever pages moved.
    assert total_frames(machine) == frames_before
    # Every page is resident on the node its node_id claims, on one list.
    for page in pages:
        node = machine.system.nodes[page.node_id]
        assert page.lru is not None
        assert any(page.lru is lst for lst in node.lruvec.all_lists())
    # All mappings survived every move.
    assert len(process.page_table) == resident


@given(
    resident=st.integers(min_value=4, max_value=60),
    discard_lo=st.integers(0, 59),
    discard_len=st.integers(1, 30),
)
@settings(max_examples=60, deadline=None)
def test_discard_then_retouch_reuses_frames(resident, discard_lo, discard_len):
    from repro.mm.address_space import MemoryRegion

    machine, process, pages = build_machine(resident)
    frames_before = total_frames(machine)
    lo = min(discard_lo, resident - 1)
    hi = min(lo + discard_len, resident)
    region = MemoryRegion(lo, hi - lo)
    freed = machine.system.discard_region(process, region)
    assert freed == hi - lo
    assert total_frames(machine) == frames_before - freed
    # Re-touching re-faults fresh pages and restores the frame count.
    for vpage in range(lo, hi):
        machine.touch(process, vpage)
    assert total_frames(machine) == frames_before
