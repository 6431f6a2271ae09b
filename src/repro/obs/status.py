"""Sweep progress folded from the span journal: the ``repro top`` view.

``repro top`` reads ``<out>.journal.ndjson`` and folds it into one
snapshot; no other record of the sweep is kept.  The journal flushes
every line and
:func:`~repro.obs.journal.read_journal` skips a torn last line, so a
fold taken while the sweep runs sees a consistent prefix of it.

The snapshot::

    {"state": "running", "trace": "9f2c…", "spec": "repro-sweep",
     "total": 25, "started_unix": ..., "updated_unix": ...,
     "cells": {"pending": 7, "leased": 4, "done": 9, "failed": 2,
               "cached": 3, "retries": 1},
     "rate_cells_per_s": 1.8, "eta_s": 6.1}

* ``done``/``failed``/``cached``/``retries`` count the ``cell.*``
  points; ``leased`` counts the ``cell.run`` spans still open, and
  ``pending`` is what is neither settled nor leased.
* ``state`` is ``running`` while the ``sweep`` span is open, else the
  ``state`` its end recorded (``done`` | ``failed`` | ``interrupted``);
  ``repro top`` (without ``--once``) exits when it leaves ``running``.
* Times are the journal's own: ``updated_unix`` is the last event's.
  The rate counts cells that ran, so cached cells never inflate it.
* ``eta_s`` is ``null`` while the sweep runs with cells left and no
  live cell finished yet (a rate of 0), and ``repro top`` prints
  ``eta ?``; it is 0 once nothing remains or the sweep has ended.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.obs.journal import pair_spans, read_journal

__all__ = [
    "journal_path",
    "load_journal",
    "fold_status",
    "read_status",
    "render_top",
    "render_prometheus",
]

_COUNTED = {
    "cell.done": "done",
    "cell.failed": "failed",
    "cell.cache_hit": "cached",
    "cell.retry": "retries",
}


def journal_path(path: str) -> str:
    """The journal for a sweep report path (``<out>.journal.ndjson``);
    a path that already ends in ``.ndjson`` is the journal itself."""
    return path if path.endswith(".ndjson") else f"{path}.journal.ndjson"


def load_journal(path: str) -> list[dict[str, Any]]:
    """The events of the journal for ``path`` (see :func:`journal_path`);
    raises ``ValueError`` with a one-line operator message when there is
    no journal or it records no sweep."""
    path = journal_path(path)
    if not os.path.exists(path):
        raise ValueError(f"journal not found: {path} (run the sweep with "
                         f"--journal and the same --out first)")
    events = read_journal(path)
    if not any(e["ev"] == "begin" and e.get("span") == "sweep"
               for e in events):
        raise ValueError(f"no sweep recorded in {path}")
    return events


def fold_status(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The progress snapshot of one sweep journal (see module docstring)."""
    events = list(events)
    cells = dict.fromkeys(("done", "failed", "cached", "retries"), 0)
    for event in events:
        counted = _COUNTED.get(event.get("span", ""))
        if counted:
            cells[counted] += 1
    spans = pair_spans(events)
    sweep = next((s for s in spans if s.span == "sweep"), None)
    leased = sum(1 for s in spans if s.span == "cell.run" and not s.complete)
    if sweep is None:
        state, total, spec = "unknown", 0, "?"
    else:
        state = ("running" if not sweep.complete
                 else sweep.fields.get("state", "unknown"))
        total = int(sweep.fields.get("cells", 0))
        spec = sweep.fields.get("spec", "?")
    settled = cells["done"] + cells["failed"] + cells["cached"]
    remaining = max(0, total - settled)

    started = sweep.t0 if sweep is not None else 0.0
    updated = max((float(e.get("t", 0.0)) for e in events), default=started)
    rate = (cells["done"] + cells["failed"]) / max(1e-9, updated - started)
    if state != "running" or not remaining:
        eta = 0.0
    elif rate > 0:
        eta = round(remaining / rate, 1)
    else:
        eta = None  # no live cell has finished: unknown, not zero
    return {
        "state": state,
        "trace": events[0].get("trace") if events else None,
        "spec": spec,
        "total": total,
        "started_unix": round(started, 3),
        "updated_unix": round(updated, 3),
        "cells": {
            "pending": max(0, remaining - leased),
            "leased": leased,
            **cells,
        },
        "rate_cells_per_s": round(rate, 3),
        "eta_s": eta,
    }


def read_status(path: str) -> dict[str, Any]:
    """The progress snapshot of the sweep journaled for ``path``."""
    return fold_status(load_journal(path))


def _bar(ok: int, failed: int, total: int, width: int = 40) -> str:
    total = max(1, total)
    good = min(round(width * ok / total), width)
    bad = min(round(width * failed / total), width - good)
    return "#" * good + "x" * bad + "." * (width - good - bad)


def render_top(status: dict[str, Any]) -> str:
    """One screenful of sweep progress — the ``repro top`` body.
    Cached cells count as settled in the bar and the ``N/total`` figure."""
    cells = status.get("cells", {})
    total = status.get("total", 0)
    done = cells.get("done", 0)
    failed = cells.get("failed", 0)
    cached = cells.get("cached", 0)
    eta = status.get("eta_s", 0.0)
    age = max(0.0, status.get("updated_unix", 0.0)
              - status.get("started_unix", 0.0))
    lines = [
        f"sweep {status.get('spec', '?')} — {status.get('state', '?')}"
        f"  ({age:.1f}s elapsed)",
        f"[{_bar(done + cached, failed, total)}] "
        f"{done + failed + cached}/{total}",
        f"  done {done}  failed {failed}"
        f"  leased {cells.get('leased', 0)}"
        f"  pending {cells.get('pending', 0)}"
        f"  cached {cached}"
        f"  retries {cells.get('retries', 0)}",
        f"  rate {status.get('rate_cells_per_s', 0.0):.2f} cells/s"
        f"  eta {'?' if eta is None else f'{eta:.0f}s'}",
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
