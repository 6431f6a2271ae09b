"""Journal → Chrome trace-event records: the ``repro timeline`` export.

Two *process lanes* (pid): the driver, and the local pool with each
worker process as a thread (tid).  A retried cell is visible as two
``cell.run`` slices with the same cell id.

Span mapping:

* driver spans (``sweep``, ``prepare``, ``merge``) — complete ``"X"``
  slices on the driver lane; they nest by construction.
* ``cell.run`` — ``"X"`` slices on the owning worker's thread.
* points (``commit``, ``cell.*`` notes) — ``"i"`` instants on their
  actor's lane.

Timestamps are journal wall-clock seconds rebased to the first event
and scaled to microseconds (the trace-event unit).  The writer itself
is shared with the simulator's tracepoint export
(:func:`repro.trace.export.write_trace_events`).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.journal import pair_spans

__all__ = ["timeline_records", "DRIVER_LANE"]

DRIVER_LANE = "driver"
_US = 1_000_000.0


class _Lanes:
    """Stable actor → (pid, tid) assignment, first-seen order."""

    def __init__(self) -> None:
        self.pids: dict[str, int] = {}
        self.tids: dict[tuple[int, str], int] = {}
        self.meta: list[dict[str, Any]] = []

    def _group(self, actor: str) -> tuple[str, str]:
        """(process key, thread key) for one actor string."""
        if actor.startswith("worker/"):
            return "local pool", f"worker {actor.rpartition('/')[2]}"
        return DRIVER_LANE, "driver"

    def locate(self, actor: str) -> tuple[int, int]:
        process, thread = self._group(actor)
        if process not in self.pids:
            self.pids[process] = len(self.pids) + 1
            self.meta.append({
                "name": "process_name", "ph": "M",
                "pid": self.pids[process], "tid": 0,
                "args": {"name": process},
            })
        pid = self.pids[process]
        key = (pid, thread)
        if key not in self.tids:
            tid = sum(1 for (p, _t) in self.tids if p == pid)
            self.tids[key] = tid
            self.meta.append({
                "name": "thread_name", "ph": "M",
                "pid": pid, "tid": tid,
                "args": {"name": thread},
            })
        return pid, self.tids[key]


def timeline_records(
    events: Iterable[dict[str, Any]],
) -> tuple[list[dict[str, Any]], int]:
    """Fold journal events into trace records; returns ``(records, lanes)``
    where ``lanes`` is the number of process lanes produced."""
    events = list(events)
    if not events:
        return [], 0
    epoch = min(float(e.get("t", 0.0)) for e in events)
    lanes = _Lanes()
    records: list[dict[str, Any]] = []

    def args_for(cell: str | None, fields: dict[str, Any]) -> dict[str, Any]:
        args = dict(fields)
        if cell:
            args["cell"] = cell
        return args

    for span in pair_spans(events):
        pid, tid = lanes.locate(span.actor)
        t0_us = (span.t0 - epoch) * _US
        t1_us = ((span.t1 if span.t1 is not None else span.t0) - epoch) * _US
        name = f"{span.span} {span.cell}" if span.cell else span.span
        records.append({
            "name": name, "ph": "X", "ts": t0_us,
            "dur": max(0.0, t1_us - t0_us),
            "pid": pid, "tid": tid,
            "args": args_for(span.cell, span.fields),
        })

    for event in events:
        if event.get("ev") != "point":
            continue
        pid, tid = lanes.locate(str(event.get("actor", DRIVER_LANE)))
        cell = event.get("cell")
        name = str(event.get("span", "point"))
        records.append({
            "name": f"{name} {cell}" if cell else name,
            "ph": "i", "s": "t",
            "ts": (float(event.get("t", epoch)) - epoch) * _US,
            "pid": pid, "tid": tid,
            "args": args_for(cell, dict(event.get("fields") or {})),
        })

    return lanes.meta + records, len(lanes.pids)
