"""Span-based structured event journal for the sweep control plane.

The *simulated machine* already has tracepoints (:mod:`repro.trace`);
this module gives the **orchestration layer** — the sweep driver and
its pool workers — the same property: every interesting state change is
one structured NDJSON line, cheap enough to leave on, and the file
folds into a timeline (:mod:`repro.obs.timeline`) and a wall-time
attribution table (:mod:`repro.obs.profile`).

One event per line::

    {"trace": "9f2c…", "seq": 17, "t": 1723100000.421,
     "ev": "begin" | "end" | "point",
     "span": "cell.run", "sid": "d12",
     "actor": "driver" | "worker/local/4711",
     "cell": "multiclock/zipf/s42",
     "fields": {...}}

* ``trace`` is the sweep-wide trace id, so journals never mix runs.
* ``sid`` identifies one span: a ``begin`` opens it, the matching
  ``end`` closes it, ``point`` events have no duration.
* ``cell`` is the per-cell **correlation id** (the sweep cell id is
  unique within a spec): a retried cell's two ``cell.run`` spans share
  it, which is what lets a timeline show the re-run.
* Timestamps are **host wall-clock seconds** (``time.time()``) — the
  control plane is real processes, unlike the simulator's virtual
  nanoseconds.

The writer guarantees **every begin gets an end**: :meth:`Journal.close`
synthesises ``end`` events (``fields.aborted = true``) for spans still
open — a SIGINT'd sweep's in-flight ``cell.run`` and ``sweep`` span —
so consumers can always pair spans without special cases.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Journal",
    "Span",
    "new_trace_id",
    "read_journal",
    "pair_spans",
]


def new_trace_id() -> str:
    """A fresh sweep-wide trace id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


class Journal:
    """Append-only NDJSON span journal for one sweep run.

    Thread-safe (the sweep drivers are single-threaded, but the lock
    keeps that a non-assumption).  Lines are flushed as they
    are written so ``repro top`` folding a live sweep — and a
    post-mortem on a killed driver — always sees a prefix of the truth.
    """

    def __init__(self, path: str, *, trace_id: str | None = None) -> None:
        self.path = path
        self.trace_id = trace_id or new_trace_id()
        self._fh = open(path, "w", encoding="utf-8")
        self._seq = 0
        self._sid = 0
        self._lock = threading.Lock()
        #: sid -> skeleton of the open span (used to synthesise ends).
        self._open: dict[str, dict[str, Any]] = {}
        self.closed = False

    # -- emission ------------------------------------------------------------

    def _write(self, record: dict[str, Any]) -> None:
        self._seq += 1
        record["trace"] = self.trace_id
        record["seq"] = self._seq
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def begin(self, span: str, *, actor: str = "driver",
              cell: str | None = None, t: float | None = None,
              **fields: Any) -> str:
        """Open a span; returns its sid (pass to :meth:`end`)."""
        with self._lock:
            self._sid += 1
            sid = f"d{self._sid}"
            record: dict[str, Any] = {
                "ev": "begin", "span": span, "sid": sid, "actor": actor,
                "t": time.time() if t is None else t,
            }
            if cell is not None:
                record["cell"] = cell
            if fields:
                record["fields"] = fields
            self._open[sid] = {"span": span, "actor": actor, "cell": cell}
            self._write(record)
            return sid

    def end(self, sid: str | None, *, t: float | None = None,
            **fields: Any) -> None:
        """Close the span ``sid``; unknown/already-closed sids are a no-op."""
        if sid is None:
            return
        with self._lock:
            skeleton = self._open.pop(sid, None)
            if skeleton is None:
                return
            self._end_locked(sid, skeleton, t, fields)

    def _end_locked(self, sid: str, skeleton: dict[str, Any],
                    t: float | None, fields: dict[str, Any]) -> None:
        record: dict[str, Any] = {
            "ev": "end", "span": skeleton["span"], "sid": sid,
            "actor": skeleton["actor"],
            "t": time.time() if t is None else t,
        }
        if skeleton.get("cell") is not None:
            record["cell"] = skeleton["cell"]
        if fields:
            record["fields"] = fields
        self._write(record)

    def point(self, span: str, *, actor: str = "driver",
              cell: str | None = None, t: float | None = None,
              **fields: Any) -> None:
        """A durationless event (commit, cache hit, note)."""
        with self._lock:
            record: dict[str, Any] = {
                "ev": "point", "span": span, "sid": "", "actor": actor,
                "t": time.time() if t is None else t,
            }
            if cell is not None:
                record["cell"] = cell
            if fields:
                record["fields"] = fields
            self._write(record)

    def close(self, **fields: Any) -> None:
        """Synthesise ends for every still-open span, then close the file.

        Idempotent.  The synthetic ends carry ``aborted: true`` — the
        honest record of a span whose real end never happened
        (interrupted sweep) — plus ``fields`` (the sweep observer passes
        the sweep's terminal ``state``)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            now = time.time()
            for sid, skeleton in list(self._open.items()):
                self._end_locked(sid, skeleton, now,
                                 {"aborted": True, **fields})
            self._open.clear()
            self._fh.close()


# -----------------------------------------------------------------------------
# Reading side
# -----------------------------------------------------------------------------


@dataclass
class Span:
    """One paired begin/end from a journal."""

    sid: str
    span: str
    actor: str
    t0: float
    t1: float | None = None
    cell: str | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.t1 is not None

    @property
    def aborted(self) -> bool:
        return bool(self.fields.get("aborted"))

    @property
    def duration(self) -> float:
        return 0.0 if self.t1 is None else max(0.0, self.t1 - self.t0)


def read_journal(path: str) -> list[dict[str, Any]]:
    """All decodable events of a journal file, in file (= seq) order.

    A torn final line (driver killed mid-write) is skipped, never an
    error — a journal must be readable at any point of its life.
    """
    events: list[dict[str, Any]] = []
    if not os.path.exists(path):
        return events
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and event.get("ev") in (
                    "begin", "end", "point"):
                events.append(event)
    return events


def pair_spans(events: Iterable[dict[str, Any]]) -> list[Span]:
    """Fold begin/end events into :class:`Span` records.

    Ends merge their fields over the begin's.  A begin without an end
    yields an *incomplete* span (``t1 is None``) — :meth:`Journal.close`
    makes that impossible for journals it finished, but a reader must
    survive a journal whose writer was SIGKILLed.
    """
    spans: dict[str, Span] = {}
    order: list[str] = []
    for event in events:
        ev = event.get("ev")
        sid = event.get("sid") or ""
        if ev == "begin" and sid:
            spans[sid] = Span(
                sid=sid,
                span=str(event.get("span", "")),
                actor=str(event.get("actor", "")),
                t0=float(event.get("t", 0.0)),
                cell=event.get("cell"),
                fields=dict(event.get("fields") or {}),
            )
            order.append(sid)
        elif ev == "end" and sid in spans:
            span = spans[sid]
            if span.t1 is None:
                span.t1 = float(event.get("t", span.t0))
                span.fields.update(event.get("fields") or {})
    return [spans[sid] for sid in order]
