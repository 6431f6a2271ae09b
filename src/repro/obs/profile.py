"""Fold a sweep journal into the report's ``profile`` and ``timing``.

``profile`` is a wall-time attribution table, two complementary views
of the same run:

* **phases** — an exact partition of the sweep's wall clock into
  ``prepare`` (cache pass), ``connect`` (prewarm and worker
  start-up: prepare end → first ``cell.run`` begins), ``execute``
  (first cell dispatched → last one settled) and ``merge`` (result
  assembly + shutdown).  The four slices are cut from the sweep span's
  own endpoints, so they sum to the measured wall time by construction;
  ``coverage`` reports that sum over the wall and is the honesty check
  the acceptance criteria pin at ≥ 0.95.

* **attribution** — *busy* seconds summed across actors, which may
  legitimately exceed wall on a parallel sweep: worker compute (the
  cells themselves) and driver-side merge.

``timing`` is one row per finished attempt (:func:`fold_timing`), read
off the ``cell.done``/``cell.retry``/``cell.failed`` points.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.journal import Span, pair_spans

__all__ = ["fold_profile", "fold_timing", "render_profile"]


def _round(x: float) -> float:
    return round(x, 6)


def fold_profile(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The ``profile`` table for SWEEP_report.json, from journal events."""
    events = list(events)
    spans = pair_spans(events)
    by_kind: dict[str, list[Span]] = {}
    for span in spans:
        by_kind.setdefault(span.span, []).append(span)

    times = [float(e.get("t", 0.0)) for e in events] or [0.0]
    sweep = (by_kind.get("sweep") or [None])[0]
    t0 = sweep.t0 if sweep is not None else min(times)
    t1 = (sweep.t1 if sweep is not None and sweep.t1 is not None
          else max(times))
    t1 = max(t0, t1)
    wall = t1 - t0

    prepare = (by_kind.get("prepare") or [None])[0]
    prep_end = min(max(prepare.t1 or prepare.t0, t0), t1) \
        if prepare is not None else t0

    runs = by_kind.get("cell.run", [])
    if runs:
        first_work = min(max(s.t0, prep_end) for s in runs)
        last_work = max(min(s.t1 if s.t1 is not None else s.t0, t1)
                        for s in runs)
        first_work = min(max(first_work, prep_end), t1)
        last_work = min(max(last_work, first_work), t1)
    else:
        first_work = last_work = prep_end

    phases = {
        "prepare_s": _round(prep_end - t0),
        "connect_s": _round(first_work - prep_end),
        "execute_s": _round(last_work - first_work),
        "merge_s": _round(t1 - last_work),
    }
    covered = sum(phases.values())
    coverage = covered / wall if wall > 0 else 1.0

    completed_runs = [s for s in runs if s.complete and not s.aborted]
    aborted_runs = [s for s in runs if not s.complete or s.aborted]
    compute = sum(s.duration for s in completed_runs)
    merge = sum(s.duration for s in by_kind.get("merge", []))

    points: dict[str, int] = {}
    for event in events:
        if event.get("ev") == "point":
            name = str(event.get("span", ""))
            points[name] = points.get(name, 0) + 1

    return {
        "wall_s": _round(wall),
        "coverage": _round(min(1.0, coverage)),
        "phases": phases,
        "attribution": {
            "worker_compute_s": _round(compute),
            "merge_s": _round(merge),
        },
        "counts": {
            "cell_runs": len(runs),
            "cell_runs_aborted": len(aborted_runs),
            "commits": points.get("commit", 0),
            "cached": points.get("cell.cache_hit", 0),
        },
    }


_TIMED_OUTCOMES = {
    "cell.done": "done",
    "cell.failed": "failed",
    "cell.retry": "retried",
}


def fold_timing(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-attempt wall-time rows for SWEEP_report.json, sorted by
    (cell id, attempt) so the section is deterministic."""
    rows = []
    for event in events:
        outcome = _TIMED_OUTCOMES.get(event.get("span", ""))
        fields = event.get("fields") or {}
        if outcome and fields.get("wall_s") is not None:
            rows.append({
                "cell": event.get("cell"),
                "attempt": fields.get("attempt", 1),
                "outcome": outcome,
                "wall_s": round(float(fields["wall_s"]), 6),
            })
    return sorted(rows, key=lambda r: (r["cell"] or "", r["attempt"]))


def render_profile(profile: dict[str, Any]) -> str:
    """The profile as a small fixed-width table for stderr."""
    phases = profile.get("phases", {})
    attribution = profile.get("attribution", {})
    counts = profile.get("counts", {})
    wall = profile.get("wall_s", 0.0) or 1e-9
    lines = [
        f"sweep wall time {profile.get('wall_s', 0.0):.3f}s "
        f"(phase coverage {100 * profile.get('coverage', 0.0):.1f}%)",
        "  phase            seconds   share",
    ]
    for key in ("prepare_s", "connect_s", "execute_s", "merge_s"):
        value = phases.get(key, 0.0)
        lines.append(
            f"  {key[:-2]:<15} {value:>8.3f}  {100 * value / wall:>5.1f}%"
        )
    lines.append("  attribution (busy seconds, may exceed wall):")
    for key in ("worker_compute_s", "merge_s"):
        lines.append(f"  {key[:-2]:<15} {attribution.get(key, 0.0):>8.3f}")
    lines.append(
        f"  {counts.get('commits', 0)} commit(s), "
        f"{counts.get('cell_runs', 0)} cell run(s) "
        f"({counts.get('cell_runs_aborted', 0)} aborted), "
        f"{counts.get('cached', 0)} cache hit(s)"
    )
    return "\n".join(lines)
