"""``repro.sweep`` — parallel sweep orchestration with crash isolation.

Shards an arbitrary (policy × workload × seed × config) cell grid
across a pool of persistent worker processes and merges results
deterministically: cell ids key the merge, spec order keys the output,
and payloads round-trip through JSON in the workers, so a parallel
sweep over deterministic cells is byte-identical to the sequential run.
A content-addressed result cache (keyed by per-cell fingerprint) makes
re-runs of unchanged cells free and is the sweep's only checkpoint: an
interrupted sweep resumes by running it again.  See DESIGN.md §7.
"""

from repro.sweep.cache import ResultCache, atomic_write_json
from repro.sweep.pool import (
    DEFAULT_MAX_ATTEMPTS,
    CellOutcome,
    SweepInterrupted,
    SweepResult,
    run_sweep,
)
from repro.sweep.report import build_report, write_report
from repro.sweep.spec import (
    SweepCell,
    SweepSpec,
    cell_fingerprint,
    register_runner,
    resolve_runner,
)

__all__ = [
    "SweepCell",
    "SweepSpec",
    "CellOutcome",
    "SweepResult",
    "SweepInterrupted",
    "ResultCache",
    "atomic_write_json",
    "build_report",
    "write_report",
    "run_sweep",
    "register_runner",
    "resolve_runner",
    "cell_fingerprint",
    "DEFAULT_MAX_ATTEMPTS",
]
