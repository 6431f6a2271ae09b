#!/usr/bin/env python3
"""Record figbench/reference.json: every run's digest at seeds 0..10.

Run from the repository root after a change that is *meant* to alter
simulated results (a pure speed change must leave the file untouched)::

    python3 figbench/make_reference.py

At the reference seed (0) the Figure 5 and 6 ``mc_vs_static`` must also
equal the value derived from the repository's own ``run_fig5`` /
``run_fig6`` at the figure benchmark's scale.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
from workloads import fig5_mc_vs_static, fig6_mc_vs_static  # noqa: E402


def figure_mc_vs_static(workload: str) -> float | None:
    from repro.experiments.fig5_ycsb import run_fig5
    from repro.experiments.fig6_gapbs import run_fig6

    if workload == "fig6-gapbs":
        return fig6_mc_vs_static(run_fig6(scale_exp=11, edge_factor=8, trials=3))
    if workload == "fig5-ycsb":
        return fig5_mc_vs_static(run_fig5(n_records=3000, ops_per_phase=6000))
    return None


SEEDS = range(run.REFERENCE_SEED, run.REFERENCE_SEED + 11)


def main() -> int:
    reference: dict[str, dict] = {}
    for workload in run.WORKLOAD_NAMES:
        for seed in SEEDS:
            record = run.spawn(workload, seed, "plain", run.CHILD_TIMEOUT_S)
            if record["failures"] or len(record["digests"]) != record["runs"]:
                print(f"error: {workload} seed {seed} did not complete: "
                      f"{record['failures']}", file=sys.stderr)
                return 1
            expected = figure_mc_vs_static(workload) if seed == run.REFERENCE_SEED else None
            if expected is not None and expected != record["mc_vs_static"]:
                print(f"error: {workload} mc_vs_static {record['mc_vs_static']!r} "
                      f"differs from the figure's {expected!r}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                "mc_vs_static": record["mc_vs_static"],
                "digests": record["digests"],
            }
            print(f"{workload} seed {seed}: {len(record['digests'])} runs, "
                  f"mc_vs_static {record['mc_vs_static']!r}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
