"""Sweep perf smoke: the worker pool against the naive sequential loop.

``bench_sweep`` runs one policy grid three ways: cell by cell through
``run_workload``, cold through the persistent worker pool, and again
against the pool's warm result cache.  ``scripts/ci.sh`` imports it and
asserts the pool's results equal the sequential loop's, that its CPU
critical path is no longer, and that the cached re-run forks nothing.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import time
from typing import Any, Iterator


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Collector off during timed sections, so its pauses don't land in
    one driver's window and not the other's."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cpu_s() -> tuple[float, float]:
    """User + system CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def bench_sweep(
    *,
    pages: int = 2000,
    ops: int = 40_000,
    policies: tuple[str, ...] = ("static", "multiclock", "nimble", "autotiering-cpm"),
    workers: int = 2,
    seed: int = 42,
    repeats: int = 2,
) -> dict[str, Any]:
    """Sequential per-cell execution vs the persistent worker pool, plus
    a warm-cache re-run.

    The sequential arm is the naive grid loop: each cell builds its own
    workload and runs it through ``run_workload``, exactly what a
    plain ``for cell in grid`` runner costs.  The pool arm runs the same
    declarative cells cold (empty result cache) through
    :func:`~repro.sweep.pool.run_sweep`: persistent workers, one shared
    numeric stream per distinct workload, array-replay per cell.
    ``identical`` asserts the pool's merged payloads equal the
    sequential results field for field — sharing construction must
    change wall time, never results.

    Wall time only shows the pool's parallelism when the host runs both
    workers at once, so each arm also reports CPU time: the sequential
    loop's own, and the pool's critical path, ``parallel_cpu_s`` — the
    driver's CPU plus its workers' CPU split over the
    ``parallel_workers`` it forked.  That is what the pool's wall time
    comes to on a host with a free CPU per worker.  The third timing,
    ``cached_rerun_seconds``, re-runs the identical spec against the
    now-populated cache: every cell is a fingerprint hit, no worker is
    spawned (``cached_rerun_workers`` must stay 0), so it measures the
    fixed cost of an incremental re-sweep.
    """
    import shutil
    import tempfile

    from repro.run import run_workload
    from repro.sweep import SweepCell, SweepSpec, run_sweep
    from repro.sweep.runners import _STREAM_CACHE, build_config, build_workload

    workload_spec = {
        "kind": "zipf", "pages": pages, "ops": ops,
        "seed": seed, "write_ratio": 0.2,
    }
    config_spec = {"dram_pages": 1024, "pm_pages": 8192, "seed": seed}
    spec = SweepSpec(
        name="bench-sweep",
        cells=tuple(
            SweepCell(
                id=policy,
                runner="run-workload",
                params={
                    "policy": policy,
                    "workload": workload_spec,
                    "config": config_spec,
                },
            )
            for policy in policies
        ),
    )

    # Best-of-repeats on both arms: the fork in the pool arm is
    # sensitive to host scheduling noise, and a gc pass before each
    # timing keeps collector pauses (and fork cost proportional to
    # garbage) out of the comparison.
    sequential_s = sequential_cpu_s = float("inf")
    for _ in range(max(1, repeats)):
        gc.collect()
        with _gc_paused():
            start = time.perf_counter()
            cpu_start, _ = _cpu_s()
            sequential = {
                policy: run_workload(
                    build_workload(workload_spec),
                    build_config(config_spec),
                    policy=policy,
                ).to_dict()
                for policy in policies
            }
            sequential_s = min(sequential_s, time.perf_counter() - start)
            sequential_cpu_s = min(sequential_cpu_s, _cpu_s()[0] - cpu_start)

    parallel_s = parallel_cpu_s = float("inf")
    cache_dir = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        for _ in range(max(1, repeats)):
            # Every cold repeat pays for stream construction and starts
            # from an empty cache.
            _STREAM_CACHE.clear()
            shutil.rmtree(cache_dir, ignore_errors=True)
            gc.collect()
            with _gc_paused():
                start = time.perf_counter()
                own_start, children_start = _cpu_s()
                cold = run_sweep(spec, workers=workers, cache_dir=cache_dir)
                parallel_s = min(parallel_s, time.perf_counter() - start)
            # The pool reaps its workers before run_sweep returns.
            own, children = _cpu_s()
            parallel_cpu_s = min(
                parallel_cpu_s,
                own - own_start
                + (children - children_start) / max(1, cold.spawned_workers),
            )

        start = time.perf_counter()
        warm = run_sweep(spec, workers=workers, cache_dir=cache_dir)
        cached_rerun_s = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = (
        cold.ok
        and warm.ok
        and cold.payloads() == sequential
        and warm.payloads() == sequential
    )
    return {
        "cells": len(policies),
        "ops_per_cell": ops,
        "workers": workers,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 2) if parallel_s > 0 else 0.0,
        "sequential_cpu_s": round(sequential_cpu_s, 3),
        "parallel_cpu_s": round(parallel_cpu_s, 3),
        "parallel_workers": cold.spawned_workers,
        "cached_rerun_seconds": round(cached_rerun_s, 4),
        "cached_rerun_workers": warm.spawned_workers,
        "identical": identical,
    }
