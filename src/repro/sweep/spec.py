"""Cell grid descriptions for the sweep orchestrator.

A sweep is a list of independent *cells* — one (policy × workload ×
seed × config) point each — plus the name of a registered *runner* that
knows how to execute one cell in a worker process and return a
JSON-serialisable payload.  The chaos matrix (:func:`run_chaos`), the
CLI's ``sweep`` and figbench all express their grids as a
:class:`SweepSpec`, so they share one pool and one retry policy.

Runners are looked up by name in a registry rather than pickled,
because the lookup must also work inside a worker that was forked (or
spawned) before the parent decided which cell it would run.  Cell
``params`` are plain JSON — workload and config *specs*, never live
objects — which :class:`SweepSpec` checks before any worker forks.  So
every cell has a content fingerprint, is cached, and resumes after an
interrupt.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "SweepCell",
    "SweepSpec",
    "register_runner",
    "resolve_runner",
    "resolve_prewarm",
    "cell_fingerprint",
]

_REGISTRY: dict[str, Callable[[dict], Any]] = {}
_PREWARMS: dict[str, Callable[[list], None]] = {}


def register_runner(
    name: str, *, prewarm: Callable[[list], None] | None = None
) -> Callable[[Callable[[dict], Any]], Callable[[dict], Any]]:
    """Register a cell runner under ``name``.

    A runner takes the cell's ``params`` dict and returns a
    JSON-serialisable payload; it runs inside a worker process, so a
    hard crash (signal, ``os._exit``) costs only its own cell.

    ``prewarm``, when given, is called in the *parent* process with the
    list of pending cells for this runner before the pool forks its
    workers.  It may populate module-level read-only caches (shared
    workload streams, lookup tables) that forked workers then inherit
    copy-on-write — construction happens once per grid instead of once
    per cell.  A prewarm must be best-effort: anything it skips is
    simply built on demand inside a worker.
    """

    def deco(fn: Callable[[dict], Any]) -> Callable[[dict], Any]:
        _REGISTRY[name] = fn
        if prewarm is not None:
            _PREWARMS[name] = prewarm
        return fn

    return deco


def resolve_runner(name: str) -> Callable[[dict], Any]:
    """Look up a runner, loading the builtin set on first use."""
    # The builtins self-register on import; lazy so that importing the
    # spec layer (and unpickling cells in spawned workers) stays cheap.
    import repro.sweep.runners  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep runner {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def resolve_prewarm(name: str) -> Callable[[list], None] | None:
    """The runner's parent-side prewarm hook, or None.

    Unknown runner names resolve to None here — the per-cell "unknown
    sweep runner" error belongs to the worker, where it is crash-isolated
    and recorded as a failed cell instead of aborting the sweep.
    """
    import repro.sweep.runners  # noqa: F401

    return _PREWARMS.get(name)


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of work in a sweep grid."""

    id: str
    runner: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered cell grid.

    The cell order is the *canonical output order*: merged results are
    always reported in spec order, never in worker completion order,
    which is what keeps a parallel sweep byte-identical to a sequential
    one.
    """

    name: str
    cells: tuple[SweepCell, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for cell in self.cells:
            if cell.id in seen:
                raise ValueError(f"duplicate sweep cell id {cell.id!r}")
            seen.add(cell.id)
            try:
                _canonical(cell)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"sweep cell {cell.id!r} has non-JSON params: {exc}"
                ) from None


def _canonical(cell: SweepCell) -> str:
    return json.dumps({"runner": cell.runner, "params": cell.params},
                      sort_keys=True)


def cell_fingerprint(cell: SweepCell) -> str:
    """Content address of one cell: a digest of (runner, params) alone.

    This is the result-cache key — deliberately *not* including the
    spec name or the cell id, so the same (runner, params) point reached
    from two different grids shares one cache entry.
    """
    return hashlib.sha256(_canonical(cell).encode("utf-8")).hexdigest()
