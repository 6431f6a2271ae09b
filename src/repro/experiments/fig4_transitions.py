"""Figure 4: state-machine transition coverage report.

Figure 4 is a diagram, not a measurement; the reproducible artifact is
evidence that a live MULTI-CLOCK system exercises every vertex of the
state machine.  This experiment drives a mixed workload and samples page
states throughout, reporting the set of observed states and the
transition-related counters.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.state import PageState, classify
from repro.experiments.common import scale, scaled_config
from repro.machine import Machine
from repro.workloads.synthetic import ShiftingHotSetWorkload

__all__ = ["run_fig4", "render_fig4"]

#: Accesses between two samples of every page's state.
SAMPLE_EVERY = 2000


def run_fig4(*, ops: int | None = None) -> dict[str, object]:
    """Run a hot-set workload, sampling page states every few thousand ops."""
    ops = ops if ops is not None else scale(60_000)
    config = scaled_config(dram_pages=256, pm_pages=2048)
    machine = Machine(config, "multiclock")
    workload = ShiftingHotSetWorkload(
        pages=1200, ops=ops, phase_ops=max(1, ops // 4), hot_fraction=0.1, seed=17
    )
    workload.setup(machine)
    observed: Counter = Counter()
    process = workload.process
    table = process.page_table
    pages = machine.system.pagestore.pages
    batches = list(workload.numeric_batches())
    vpages = np.concatenate([vpage for vpage, _ in batches])
    writes = np.concatenate([write for _, write in batches])
    # One block up to each sampling point (after access 0, 2000, 4000,
    # ...), then the tail.
    start = 0
    for end in range(1, len(vpages) + 1, SAMPLE_EVERY):
        machine.touch_batch_array(
            process, [(vpages[start:end], writes[start:end])], lines=workload.lines
        )
        for vpage in table.vpages():
            observed[classify(pages[table.pfn(vpage)])] += 1
        start = end
    machine.touch_batch_array(
        process, [(vpages[start:], writes[start:])], lines=workload.lines
    )
    counters = machine.stats.snapshot()
    return {
        "observed_states": observed,
        "promotions": counters.get("migrate.promotions", 0),
        "demotions": counters.get("migrate.demotions", 0),
        "promote_list_adds": counters.get("multiclock.promote_list_adds", 0),
        "evictions": counters.get("reclaim.evictions", 0),
    }


def render_fig4(data: dict[str, object]) -> str:
    observed: Counter = data["observed_states"]
    lines = ["Fig 4 — page state machine coverage", ""]
    for state in PageState:
        seen = observed.get(state, 0)
        marker = "yes" if seen else " no"
        lines.append(f"  {state.value:>22}: observed {seen:>8} times [{marker}]")
    lines.append("")
    lines.append(
        f"edge 10 (-> promote list): {data['promote_list_adds']} | "
        f"edge 13 (promotions): {data['promotions']} | "
        f"edge 3 (demotions): {data['demotions']} | "
        f"edge 4 (evictions): {data['evictions']}"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_fig4(run_fig4()))
