"""Build and write ``SWEEP_report.json``.

The report is deterministic: cells in grid order, no attempt counts or
host timings, so the bytes are independent of ``--workers`` and of
scheduling — a parallel sweep, or one whose cells the result cache
served, produces the same file as a sequential live one.

Observability rides in two *optional* top-level sections, both folded
from the span journal:

* ``timing`` — per-attempt wall time and outcome rows, sorted by
  (cell id, attempt) (:func:`repro.obs.profile.fold_timing`);
* ``profile`` — the wall-time attribution table
  (:func:`repro.obs.profile.fold_profile`).

Both are only present when the sweep ran with ``--journal``; without
them the report is **byte-identical** to a pre-observability run, which
CI pins with a literal ``cmp``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.sweep.pool import SweepResult

__all__ = ["build_report", "write_report"]


def build_report(
    result: SweepResult,
    *,
    grid: dict[str, Any] | None = None,
    timing: list[dict[str, Any]] | None = None,
    profile: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The report dict for ``result``; ``timing``/``profile`` are
    attached only when provided (journal-armed runs)."""
    report: dict[str, Any] = {
        "grid": grid or {},
        "cells": [
            {
                "id": o.cell.id,
                "status": o.status,
                **({"result": o.payload} if o.ok else {"error": o.error}),
            }
            for o in result.outcomes
        ],
    }
    if timing is not None:
        report["timing"] = timing
    if profile is not None:
        report["profile"] = profile
    return report


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
