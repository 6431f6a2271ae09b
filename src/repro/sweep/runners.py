"""Builtin cell runners: how one sweep cell executes inside a worker.

Every cell's params are plain JSON (:class:`~repro.sweep.spec.SweepSpec`
checks this before any fork): workload and config *specs* that
:func:`build_workload` and :func:`build_config` turn into live objects
inside the worker.  The builders here are the single source of truth
the CLI also uses for its own ``--workload`` and sizing flags.

* ``run-workload`` — one workload under one policy on a fresh machine;
  what ``repro sweep`` and figbench emit.
* ``chaos-cell`` — one cell of the chaos matrix (:func:`run_chaos`): the
  same plus a fault plan (as :meth:`FaultPlan.to_dict`) and the
  invariant checker.

``run-workload`` cells share read-only workload construction: the
numeric access stream for each distinct workload spec is generated once
— in the parent via the runner's prewarm hook, so forked workers
inherit it copy-on-write — and replayed per cell through
:meth:`~repro.machine.Machine.touch_batch_array`.  Replay is
bit-identical to driving ``blocks()`` (the stream *is* the definition
of the workload), so sharing changes wall time, never results.

``flaky`` exists for the test suite and the CI smoke: a deterministic
marker-file-gated runner that crashes or hangs until its marker exists,
which is how "a worker died and was retried" is exercised without
randomness.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

from repro.run import run_numeric_stream
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.sweep.spec import register_runner
from repro.workloads.base import Workload
from repro.workloads.synthetic import (
    SequentialScanWorkload,
    ShiftingHotSetWorkload,
    UniformWorkload,
    ZipfWorkload,
)

__all__ = ["WORKLOAD_KINDS", "build_workload", "build_config", "shared_stream"]

#: The declarative workload vocabulary, shared with the CLI's
#: ``--workload`` choices.  Order is the canonical presentation order.
WORKLOAD_KINDS: dict[str, Callable[..., Workload]] = {
    "zipf": ZipfWorkload,
    "uniform": UniformWorkload,
    "seqscan": SequentialScanWorkload,
    "shifting-hotset": ShiftingHotSetWorkload,
}


def build_workload(spec: dict[str, Any]) -> Workload:
    """Instantiate a workload from a JSON description.

    ``spec`` keys: ``kind`` (one of :data:`WORKLOAD_KINDS`), ``pages``,
    ``ops``, ``seed``, ``write_ratio``.
    """
    kind = spec.get("kind")
    if kind not in WORKLOAD_KINDS:
        raise ValueError(
            f"unknown workload kind {kind!r}; choose from {', '.join(WORKLOAD_KINDS)}"
        )
    kwargs: dict[str, Any] = {
        "seed": spec.get("seed", 42),
        "write_ratio": spec.get("write_ratio", 0.0),
    }
    ops = spec["ops"]
    if kind == "shifting-hotset":
        kwargs["phase_ops"] = spec.get("phase_ops", max(1, ops // 4))
    return WORKLOAD_KINDS[kind](spec["pages"], ops, **kwargs)


def build_config(spec: dict[str, Any]) -> SimulationConfig:
    """Build a machine config from a JSON description (CLI sizing keys)."""
    interval = spec.get("interval", 0.005)
    return SimulationConfig(
        dram_pages=(spec["dram_pages"],),
        pm_pages=(spec["pm_pages"],),
        swap_pages=spec.get("swap_pages", 1 << 28),
        daemons=DaemonConfig(
            kpromoted_interval_s=interval,
            kswapd_interval_s=interval / 2,
            hint_scan_interval_s=interval,
        ),
        seed=spec.get("seed", 42),
    )


#: Materialised numeric streams keyed by workload-spec JSON, shared
#: read-only across every cell that names the same workload.  Populated
#: in the parent by the prewarm hook (forked workers inherit it) or on
#: first use inside a persistent worker; bounded so thousand-workload
#: grids cannot grow it without limit.
_STREAM_CACHE: dict[str, list] = {}
_STREAM_CACHE_MAX = 64


def shared_stream(workload_spec: dict[str, Any]) -> list:
    """The (vpages, writes) batch list for one declarative workload spec,
    generated at most once per process."""
    key = json.dumps(workload_spec, sort_keys=True)
    stream = _STREAM_CACHE.get(key)
    if stream is None:
        stream = list(build_workload(workload_spec).numeric_batches())
        while len(_STREAM_CACHE) >= _STREAM_CACHE_MAX:
            _STREAM_CACHE.pop(next(iter(_STREAM_CACHE)))
        _STREAM_CACHE[key] = stream
    return stream


def _prewarm_run_workload(cells: list) -> None:
    """Parent-side hook: build each distinct workload stream once, before
    the pool forks, so all workers share one copy-on-write stream."""
    for cell in cells:
        try:
            shared_stream(cell.params["workload"])
        except Exception:  # noqa: BLE001 - a bad spec fails in its own cell
            continue


@register_runner("run-workload", prewarm=_prewarm_run_workload)
def run_workload_cell(params: dict[str, Any]) -> dict[str, Any]:
    """Declarative cell: fresh machine, one workload, one policy.

    The access stream is replayed from the shared numeric-stream cache
    (bit-identical to driving ``workload.blocks()`` — the perf suite
    pins it), so N cells over one workload pay for its construction
    once."""
    config = build_config(params["config"])
    workload = build_workload(params["workload"])
    stream = shared_stream(params["workload"])
    result = run_numeric_stream(workload, config, stream, policy=params["policy"])
    return result.to_dict()


@register_runner("chaos-cell")
def chaos_cell(params: dict[str, Any]) -> dict[str, Any]:
    """One chaos-matrix cell: params are ``policy``, ``workload`` and
    ``config`` specs, the ``plan`` dict, ``check_interval_s`` and
    ``trace_capacity``."""
    from repro.faults.chaos import _run_cell
    from repro.faults.plan import FaultPlan

    workload = params["workload"]
    cell = _run_cell(
        params["policy"],
        workload["kind"],
        build_workload(workload),
        FaultPlan.from_dict(params["plan"]),
        build_config(params["config"]),
        params["check_interval_s"],
        params["trace_capacity"],
    )
    return cell.to_dict()


@register_runner("flaky")
def flaky_cell(params: dict[str, Any]) -> Any:
    """Deterministic misbehaviour for tests and the CI smoke.

    Until ``marker`` exists the cell fails in the requested ``mode``
    (``exit`` hard-exits past any exception handling, ``hang`` sleeps
    until the pool's timeout kills it), creating the marker first so the
    *next* attempt succeeds.  With no marker it fails every attempt.

    ``sleep`` succeeds after a short nap: a cell with measurable width,
    so a sweep can be interrupted or observed *mid-run*.
    """
    marker = params.get("marker")
    mode = params.get("mode", "exit")
    if mode == "sleep":
        time.sleep(params.get("sleep_s", 0.2))
        return params.get("payload", "slept")
    if marker is not None and os.path.exists(marker):
        return params.get("payload", "recovered")
    if marker is not None:
        with open(marker, "w", encoding="utf-8"):
            pass
    if mode == "hang":
        time.sleep(params.get("hang_s", 3600.0))
        return "woke before the timeout fired"
    os._exit(params.get("exit_code", 17))
