"""The control-plane event catalog and its human-readable formatters.

The sweep narrates itself in *structured events*: the pool emits
``obs.emit("cell.done", cell=..., attempt=..., ...)`` and this module
owns turning the fields into the lines operators (and the fault-path
tests) grep for.  The journal records the fields; the string is a
*rendering*, produced on demand.

Adding an event means adding one formatter here — the pool never
formats prose.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["render_event", "EVENT_FORMATTERS"]


def _cell_cache_hit(f: dict[str, Any]) -> str:
    if f.get("when") == "redispatch":
        return (f"[{f['done']}/{f['total']}] {f['cell']}: "
                f"served from result cache ({f['key']})")
    return f"{f['cell']}: cache hit ({f['key']})"


def _cell_done(f: dict[str, Any]) -> str:
    return (f"[{f['done']}/{f['total']}] {f['cell']}: "
            f"done (attempt {f['attempt']})")


def _cell_retry(f: dict[str, Any]) -> str:
    return (f"{f['cell']}: attempt {f['attempt']} failed "
            f"({f['error']}); retrying")


def _cell_failed(f: dict[str, Any]) -> str:
    return (f"[{f['done']}/{f['total']}] {f['cell']}: FAILED after "
            f"{f['attempt']} attempt(s): {f['error']}")


def _cell_interrupted(f: dict[str, Any]) -> str:
    return f"{f['cell']}: interrupted in flight; not cached"


EVENT_FORMATTERS: dict[str, Callable[[dict[str, Any]], str]] = {
    "cell.cache_hit": _cell_cache_hit,
    "cell.done": _cell_done,
    "cell.retry": _cell_retry,
    "cell.failed": _cell_failed,
    "cell.interrupted": _cell_interrupted,
}


def render_event(event: str, fields: dict[str, Any]) -> str | None:
    """The human-readable line for ``event``, or None for events that
    have no prose form (an unknown event never crashes a sweep)."""
    formatter = EVENT_FORMATTERS.get(event)
    if formatter is None:
        return None
    try:
        return formatter(fields)
    except (KeyError, TypeError, ValueError):
        # A malformed emit site loses its narration, never the sweep.
        return f"{event}: {fields!r}"
