"""Control-plane observability: journal, live status, timeline, profiler.

The sweep pool (:mod:`repro.sweep.pool`) talks to exactly one object —
:class:`SweepObserver` — which fans each structured event out to up to
three sinks:

* the **progress callback** (the pre-PR-10 ``note`` lines, rendered
  from the event's fields by :mod:`repro.obs.events`),
* the **span journal** (:class:`repro.obs.journal.Journal`, NDJSON),
* the **status board** (:class:`repro.obs.status.StatusBoard`, the
  atomically-rewritten ``<out>.status.json`` that ``repro top`` polls).

All three sinks are optional; a bare ``SweepObserver()`` is a correct
null observer, which is how journal-off sweeps stay byte-identical —
the pool always emits, the observer decides whether anything listens.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.events import EVENT_FORMATTERS, render_event
from repro.obs.journal import (
    Journal,
    Span,
    new_trace_id,
    pair_spans,
    read_journal,
)
from repro.obs.profile import fold_profile, render_profile
from repro.obs.status import (
    MIN_REWRITE_INTERVAL_S,
    StatusBoard,
    read_status,
    render_prometheus,
    render_top,
)
from repro.obs.timeline import timeline_records

__all__ = [
    "SweepObserver",
    "Journal",
    "Span",
    "new_trace_id",
    "read_journal",
    "pair_spans",
    "StatusBoard",
    "read_status",
    "render_top",
    "render_prometheus",
    "MIN_REWRITE_INTERVAL_S",
    "fold_profile",
    "render_profile",
    "timeline_records",
    "render_event",
    "EVENT_FORMATTERS",
]

#: Events that settle a cell for good — each journals one ``commit``
#: point, which is the invariant the fault tests pin: a cell that ran
#: twice (a failed attempt, then its retry) still commits once.
_TERMINAL_EVENTS = {"cell.done", "cell.failed", "cell.cache_hit"}

_COUNTED = {
    "cell.done": "done",
    "cell.failed": "failed",
    "cell.cache_hit": "cached",
    "cell.retry": "retries",
}

_TIMED_OUTCOMES = {
    "cell.done": "done",
    "cell.failed": "failed",
    "cell.retry": "retried",
}


class SweepObserver:
    """Fan-out for sweep events; every sink is optional.

    The pool never formats prose and never checks whether a journal is
    armed — it calls :meth:`emit`/:meth:`begin`/:meth:`end` and this
    object routes to whichever sinks exist.
    """

    def __init__(self, progress: Callable[[str], None] | None = None,
                 journal: Journal | None = None,
                 status: StatusBoard | None = None) -> None:
        self.progress = progress
        self.journal = journal
        self.status = status
        self.counts: dict[str, int] = {
            "done": 0, "failed": 0, "cached": 0, "retries": 0,
        }
        self._timing: list[dict[str, Any]] = []
        self._closed = False

    @property
    def trace_id(self) -> str | None:
        return self.journal.trace_id if self.journal is not None else None

    # -- structured events -----------------------------------------------------

    def emit(self, event: str, *, cell: str | None = None,
             **fields: Any) -> None:
        """One structured sweep event: journal it, count it, narrate it,
        and commit it if it settles a cell."""
        counted = _COUNTED.get(event)
        if counted:
            self.counts[counted] += 1
        if self.journal is not None:
            self.journal.point(event, cell=cell, **fields)
            if event in _TERMINAL_EVENTS:
                self.journal.point("commit", cell=cell,
                                   ok=event != "cell.failed")
        outcome = _TIMED_OUTCOMES.get(event)
        if outcome and fields.get("wall_s") is not None:
            self._timing.append({
                "cell": cell,
                "attempt": fields.get("attempt", 1),
                "outcome": outcome,
                "wall_s": round(float(fields["wall_s"]), 6),
            })
        if self.progress is not None:
            render_fields = dict(fields)
            if cell is not None:
                render_fields["cell"] = cell
            line = render_event(event, render_fields)
            if line is not None:
                self.progress(line)

    def note(self, msg: str) -> None:
        """A free-form narration line with no structured twin (signal
        guard chatter, shutdown notices)."""
        if self.journal is not None:
            self.journal.point("note", msg=msg)
        if self.progress is not None:
            self.progress(msg)

    # -- spans -------------------------------------------------------------

    def begin(self, span: str, *, actor: str = "driver",
              cell: str | None = None, **fields: Any) -> str | None:
        if self.journal is None:
            return None
        return self.journal.begin(span, actor=actor, cell=cell, **fields)

    def end(self, sid: str | None, **fields: Any) -> None:
        if self.journal is not None and sid is not None:
            self.journal.end(sid, **fields)

    # -- live status -------------------------------------------------------

    def status_tick(self, *, pending: int | None = None,
                    leased: int | None = None, force: bool = False) -> None:
        if self.status is not None:
            self.status.update(pending=pending, leased=leased,
                               counts=self.counts, force=force)

    # -- report hand-off -----------------------------------------------------

    def timing_rows(self) -> list[dict[str, Any]]:
        """Per-attempt wall-time rows for SWEEP_report.json, sorted by
        (cell id, attempt) so the section is deterministic."""
        return sorted(self._timing,
                      key=lambda r: (r["cell"] or "", r["attempt"]))

    def close(self, state: str | None = None) -> None:
        """Flush terminal state to every sink; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.status is not None:
            self.status.finish(state or "done")
        if self.journal is not None:
            self.journal.close()
