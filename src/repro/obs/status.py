"""The live ``<out>.status.json`` sidecar and the ``repro top`` view.

The driver rewrites one small JSON file atomically (tmp + ``os.replace``,
the same protocol the result cache uses) so any number of
``repro top`` processes can poll it without coordination: a reader sees
either the previous complete snapshot or the next one, never a torn
write.  Rewrites are throttled to :data:`MIN_REWRITE_INTERVAL_S` except
on state transitions, so a thousand-cell sweep does not spend its wall
time in ``fsync``-adjacent churn.

The file is self-describing::

    {"version": 1, "state": "running", "trace": "9f2c…",
     "spec": "repro-sweep", "total": 25,
     "started_unix": ..., "updated_unix": ...,
     "cells": {"pending": 7, "leased": 4, "done": 12, "failed": 2,
               "cached": 3, "retries": 1},
     "rate_cells_per_s": 1.8, "eta_s": 6.1}

``leased`` counts the cells in flight on a worker.

``state`` moves ``running`` → ``done`` | ``failed`` | ``interrupted``;
``repro top`` (without ``--once``) exits when it leaves ``running``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from repro.sweep.cache import atomic_write_json

__all__ = [
    "StatusBoard",
    "read_status",
    "render_top",
    "render_prometheus",
    "MIN_REWRITE_INTERVAL_S",
]

_VERSION = 1
#: Floor between on-disk rewrites while counts merely tick forward.
MIN_REWRITE_INTERVAL_S = 0.25


class StatusBoard:
    """Maintains the atomically-rewritten status sidecar for one sweep."""

    def __init__(self, path: str, *, total: int, spec: str,
                 trace: str | None = None) -> None:
        self.path = path
        self.total = total
        self.spec = spec
        self.trace = trace
        self.started = time.time()
        self.state = "running"
        self._last_write = 0.0
        self._counts: dict[str, int] = {}
        self._pending = total
        self._leased = 0
        self.update(force=True)

    def update(self, *, pending: int | None = None, leased: int | None = None,
               counts: dict[str, int] | None = None,
               force: bool = False) -> None:
        """Fold new numbers in and rewrite the file (throttled)."""
        if pending is not None:
            self._pending = pending
        if leased is not None:
            self._leased = leased
        if counts is not None:
            self._counts = dict(counts)
        now = time.time()
        if not force and now - self._last_write < MIN_REWRITE_INTERVAL_S:
            return
        self._last_write = now
        atomic_write_json(self.path, self._snapshot(now), indent=2)

    def finish(self, state: str) -> None:
        """Final rewrite with the terminal state; idempotent."""
        if self.state != "running":
            return
        self.state = state
        self._pending = 0
        self._leased = 0
        self.update(force=True)

    def _snapshot(self, now: float) -> dict[str, Any]:
        done = self._counts.get("done", 0)
        failed = self._counts.get("failed", 0)
        settled = done + failed
        elapsed = max(1e-9, now - self.started)
        rate = settled / elapsed
        remaining = max(0, self.total - settled)
        eta = remaining / rate if rate > 0 and self.state == "running" else 0.0
        return {
            "version": _VERSION,
            "state": self.state,
            "trace": self.trace,
            "spec": self.spec,
            "total": self.total,
            "started_unix": round(self.started, 3),
            "updated_unix": round(now, 3),
            "cells": {
                "pending": self._pending,
                "leased": self._leased,
                "done": done,
                "failed": failed,
                "cached": self._counts.get("cached", 0),
                "retries": self._counts.get("retries", 0),
            },
            "rate_cells_per_s": round(rate, 3),
            "eta_s": round(eta, 1),
        }


def read_status(path: str) -> dict[str, Any]:
    """Load one status snapshot; raises ``ValueError`` with a one-line
    operator message when the file is absent or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            status = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"status file not found: {path} (is the sweep running with "
            f"the same --out, or finished long ago?)"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable status file {path}: {exc}") from None
    if not isinstance(status, dict) or "cells" not in status:
        raise ValueError(f"{path} is not a sweep status file")
    return status


def _bar(done: int, failed: int, total: int, width: int = 40) -> str:
    total = max(1, total)
    ok = round(width * done / total)
    bad = round(width * failed / total)
    ok = min(ok, width)
    bad = min(bad, width - ok)
    return "#" * ok + "x" * bad + "." * (width - ok - bad)


def render_top(status: dict[str, Any]) -> str:
    """One screenful of sweep progress — the ``repro top`` body."""
    cells = status.get("cells", {})
    total = status.get("total", 0)
    done = cells.get("done", 0)
    failed = cells.get("failed", 0)
    age = max(0.0, status.get("updated_unix", 0.0)
              - status.get("started_unix", 0.0))
    lines = [
        f"sweep {status.get('spec', '?')} — {status.get('state', '?')}"
        f"  ({age:.1f}s elapsed)",
        f"[{_bar(done, failed, total)}] {done + failed}/{total}",
        f"  done {done}  failed {failed}"
        f"  leased {cells.get('leased', 0)}"
        f"  pending {cells.get('pending', 0)}"
        f"  cached {cells.get('cached', 0)}"
        f"  retries {cells.get('retries', 0)}",
        f"  rate {status.get('rate_cells_per_s', 0.0):.2f} cells/s"
        f"  eta {status.get('eta_s', 0.0):.0f}s",
    ]
    return "\n".join(lines)


def render_prometheus(status: dict[str, Any]) -> str:
    """The status snapshot as Prometheus text exposition — the same
    format the metrics registry speaks, so one scraper covers both the
    simulated machine and the sweep control plane."""
    cells = status.get("cells", {})
    state = status.get("state", "unknown")
    out = [
        "# TYPE repro_sweep_cells gauge",
    ]
    for key in ("pending", "leased", "done", "failed", "cached", "retries"):
        out.append(f'repro_sweep_cells{{state="{key}"}} {cells.get(key, 0)}')
    out.append("# TYPE repro_sweep_total gauge")
    out.append(f"repro_sweep_total {status.get('total', 0)}")
    out.append("# TYPE repro_sweep_running gauge")
    out.append(f"repro_sweep_running {1 if state == 'running' else 0}")
    out.append("# TYPE repro_sweep_rate_cells_per_s gauge")
    out.append(
        f"repro_sweep_rate_cells_per_s {status.get('rate_cells_per_s', 0.0)}"
    )
    return "\n".join(out) + "\n"
