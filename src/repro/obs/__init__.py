"""Control-plane observability: journal, live status, timeline, profiler.

The sweep pool (:mod:`repro.sweep.pool`) talks to exactly one object —
:class:`SweepObserver` — which fans each structured event out to up to
two sinks:

* the **progress callback** (the human-readable narration lines,
  rendered from the event's fields by :mod:`repro.obs.events`),
* the **span journal** (:class:`repro.obs.journal.Journal`, NDJSON).

Both sinks are optional; a bare ``SweepObserver()`` is a correct null
observer, which is how journal-off sweeps stay byte-identical — the
pool always emits, the observer decides whether anything listens.

The journal is the sweep's only record.  Every other view is a fold of
it: ``repro top`` (:func:`fold_status`), ``repro timeline``
(:func:`timeline_records`) and the report's ``profile``/``timing``
sections (:func:`fold_profile`, :func:`fold_timing`).
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
from repro.obs.profile import fold_profile, fold_timing, render_profile
from repro.obs.status import (
    fold_status,
    journal_path,
    load_journal,
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
    "journal_path",
    "load_journal",
    "fold_status",
    "read_status",
    "render_top",
    "render_prometheus",
    "fold_profile",
    "fold_timing",
    "render_profile",
    "timeline_records",
    "render_event",
    "EVENT_FORMATTERS",
]

#: Events that settle a cell for good — each journals one ``commit``
#: point, which is the invariant the fault tests pin: a cell that ran
#: twice (a failed attempt, then its retry) still commits once.
_TERMINAL_EVENTS = {"cell.done", "cell.failed", "cell.cache_hit"}


class SweepObserver:
    """Fan-out for sweep events; every sink is optional.

    The pool never formats prose and never checks whether a journal is
    armed — it calls :meth:`emit`/:meth:`begin`/:meth:`end` and this
    object routes to whichever sinks exist.
    """

    def __init__(self, progress: Callable[[str], None] | None = None,
                 journal: Journal | None = None) -> None:
        self.progress = progress
        self.journal = journal

    # -- structured events -----------------------------------------------------

    def emit(self, event: str, *, cell: str | None = None,
             **fields: Any) -> None:
        """One structured sweep event: journal it, narrate it, and
        commit it if it settles a cell."""
        if self.journal is not None:
            self.journal.point(event, cell=cell, **fields)
            if event in _TERMINAL_EVENTS:
                self.journal.point("commit", cell=cell,
                                   ok=event != "cell.failed")
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

    def close(self, state: str) -> None:
        """Close the journal with the sweep's terminal ``state``
        (``done`` | ``failed`` | ``interrupted``): spans still open end
        with it, marked ``aborted``.  Idempotent."""
        if self.journal is not None:
            self.journal.close(state=state)
