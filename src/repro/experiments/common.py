"""Shared experiment configuration and runners.

**Time scaling.** The paper's testbed runs multi-minute workloads against
a 1-second daemon interval.  Simulating minutes of virtual time in Python
is wasteful, so every experiment here scales the *entire time axis* down
by ``TIME_SCALE`` (default 1/200): daemon intervals become 5 ms, the
Fig 8/9 stats windows become 100 ms, and runs last on the order of a
virtual second.  All ratios that determine behaviour — accesses per scan
interval, migration cost per access, workload phase length per wakeup —
are preserved, which is what makes the paper's shapes reproducible at
laptop scale.  ``REPRO_SCALE`` (environment variable, default 1.0) scales
workload sizes up for higher-fidelity runs.
"""

from __future__ import annotations

import math
import os

from repro.machine import Machine
from repro.run import RunResult, run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession

__all__ = [
    "TIME_SCALE",
    "scale",
    "scaled_config",
    "run_ycsb_sequence",
    "EVALUATED_POLICIES",
]

TIME_SCALE = 1.0 / 200.0
"""Virtual-time compression relative to the paper's testbed."""

EVALUATED_POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm", "autotiering-opm")
"""The Fig 5/6 comparison set, in the paper's order."""


# Validated REPRO_SCALE factor, keyed by the raw env string so a test
# (or a long-lived process) that changes the variable is still honoured.
_scale_cache: tuple[str, float] | None = None


def _scale_factor() -> float:
    """Validate REPRO_SCALE once per value and cache the factor.

    A malformed value (``REPRO_SCALE=fast``, zero, negative, nan, inf)
    is an operator mistake: it raises a ``ValueError`` that the CLI
    turns into its one-line ``error:`` exit instead of a traceback.
    """
    global _scale_cache
    raw = os.environ.get("REPRO_SCALE", "1.0")
    if _scale_cache is not None and _scale_cache[0] == raw:
        return _scale_cache[1]
    try:
        factor = float(raw)
    except ValueError:
        factor = math.nan
    if not math.isfinite(factor) or factor <= 0.0:
        raise ValueError(
            f"invalid REPRO_SCALE={raw!r}: must be a finite positive number "
            "(e.g. REPRO_SCALE=2.0 doubles workload sizes)"
        )
    _scale_cache = (raw, factor)
    return factor


def scale(n: int) -> int:
    """Scale a workload size by the REPRO_SCALE environment variable."""
    return max(1, int(n * _scale_factor()))


def scaled_config(
    dram_pages: int,
    pm_pages: int,
    *,
    interval_s: float = 1.0,
    seed: int = 42,
    scan_budget_pages: int = 128,
) -> SimulationConfig:
    """A config with the paper's daemon settings on the scaled time axis.

    ``interval_s`` is in *paper* seconds (1.0 = the paper's default
    kpromoted interval); it is multiplied by TIME_SCALE internally.

    **Budget scaling.** The paper sets the CLOCK scan budget to 1024
    pages against footprints of hundreds of gigabytes — promotion
    bandwidth is a scarce resource, which is exactly why *selective*
    promotion (MULTI-CLOCK) beats volume promotion (Nimble).  Our scaled
    footprints are a few thousand pages, so a literal 1024-page budget
    would cover most of memory every wakeup and erase that scarcity; the
    default here keeps the budget at a few percent of a typical
    experiment footprint.  The hint-fault scanner instead gets a *large*
    budget: AutoNUMA-family scanners sweep their entire footprint over a
    few intervals by design, which is where their "costly software page
    fault-based page access tracking" overhead comes from (Section V-C1).
    """
    scaled_interval = interval_s * TIME_SCALE
    return SimulationConfig(
        dram_pages=(dram_pages,),
        pm_pages=(pm_pages,),
        daemons=DaemonConfig(
            kpromoted_interval_s=scaled_interval,
            kswapd_interval_s=max(scaled_interval / 2, 1e-4),
            hint_scan_interval_s=scaled_interval,
            scan_budget_pages=scan_budget_pages,
            hint_scan_budget_pages=4096,
        ),
        seed=seed,
        stats_window_s=20.0 * TIME_SCALE,
    )


def run_ycsb_sequence(
    policy: str,
    config: SimulationConfig,
    *,
    n_records: int,
    ops_per_phase: int,
    value_size: int = 1024,
    seed: int = 42,
    phases: tuple[str, ...] = EXECUTION_SEQUENCE,
) -> dict[str, RunResult]:
    """The paper's prescribed sequence on one machine: Load, A..W, D.

    The warm-up Load phase's result is returned under the ``"load"``
    key — its promotions and faults are part of the story sequence
    reports tell — while the paper-phase keys (``"A"`` ... ``"D"``)
    stay exactly as before for existing callers.
    """
    machine = Machine(config, policy)
    session = YCSBSession(n_records, value_size=value_size, seed=seed)
    results: dict[str, RunResult] = {}
    results["load"] = run_workload(session.load_phase(), config, machine=machine)
    for name in phases:
        results[name] = run_workload(
            session.phase(name, ops=ops_per_phase), config, machine=machine
        )
    return results
