"""Host-wall-clock microbenchmarks for the hot paths — ``repro bench``.

Everything else in this repo measures *virtual* time; this module is the
one place that measures *host* time, because its job is to keep the
simulator itself fast enough to run the paper's full workloads.  Three
benchmarks, written to ``BENCH_perf.json``:

* ``touch`` — the per-access :meth:`~repro.machine.Machine.touch` loop
  versus the one driver :meth:`~repro.machine.Machine.touch_batch`, fed
  numeric arrays through :meth:`~repro.machine.Machine.touch_batch_array`
  (the sweep pool's replay path), on the same fixed-seed Zipf stream,
  under the ``static`` policy so no daemon work dilutes the pure access
  path.  Reports ops/sec for both (``batched_ops_per_sec`` is the
  driver), the speedup, and an ``identical`` flag asserting the runs
  ended with bit-identical counters and virtual clocks.
* ``kpromoted`` — scan throughput of the MULTI-CLOCK promotion daemon,
  in pages scanned per host second.
* ``ycsb_a`` — end-to-end host wall time of a YCSB Load + Workload A
  sequence under ``multiclock``, the closest thing to "how long does a
  paper experiment take".
* ``trace`` — the tracepoint layer's cost: the same ``multiclock`` run
  with tracing off versus armed.  Reports both throughputs, the
  overhead ratio, and an ``identical`` flag asserting the traced run's
  counters and virtual clocks match the untraced run bit for bit (the
  "tracepoints compile to nops" property, measured).
* ``sweep`` — the sweep orchestrator: a declarative policy grid run as
  a naive sequential per-cell loop versus the persistent worker pool
  (shared workload streams, array replay), then re-run against the warm
  result cache.  Reports all three wall times (``sequential_s``,
  ``parallel_s``, ``cached_rerun_seconds``), the speedup, the host's
  CPU count, the CPU time of both arms (``sequential_cpu_s``, and the
  pool's critical path ``parallel_cpu_s``), the workers the pool
  forked (``parallel_workers``), ``cached_rerun_workers`` (must be 0 —
  a fully cached re-run spawns no children), and an ``identical`` flag
  asserting both pool runs' merged payloads equal the sequential
  results exactly.
* ``metrics`` — the metrics registry's cost: the same ``multiclock``
  run with metrics off versus armed.  Reports both throughputs, the
  overhead ratio, and an ``identical`` flag asserting the armed run's
  counters and virtual clocks match the metrics-off run bit for bit
  (the cost-free sampler / guarded-sites nop property, measured).
* ``journal`` — the control-plane span journal's cost: the same local
  pool sweep with the journal off versus armed.  Reports both wall
  times, the overhead ratio, the journal's event count, and an
  ``identical`` flag asserting the armed run's merged payloads equal
  the journal-off run's exactly (observability must never change
  results — the same property the byte-identical report pins).

Each benchmark takes a best-of-``repeats`` timing to shrug off host
scheduling noise.  ``--smoke`` shrinks the workloads to CI size.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import time
from typing import Any, Iterator

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

__all__ = [
    "bench_touch",
    "bench_kpromoted",
    "bench_ycsb_a",
    "bench_trace",
    "bench_sweep",
    "bench_journal",
    "bench_metrics",
    "run_suite",
    "write_results",
]

DEFAULT_OUT = "BENCH_perf.json"


def _config(seed: int = 42) -> SimulationConfig:
    return SimulationConfig(dram_pages=(1024,), pm_pages=(8192,), seed=seed)


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


def _machine_state(machine: Machine) -> tuple[dict[str, int], int, int, int]:
    clock = machine.clock
    return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns


def bench_touch(
    ops: int = 200_000, *, pages: int = 4000, repeats: int = 3, seed: int = 42
) -> dict[str, Any]:
    """The per-access loop vs the one driver on one access stream.

    Two arms over the same fixed-seed Zipf stream: the per-access
    :meth:`~repro.machine.Machine.touch` loop, the definition of an
    access, and :meth:`~repro.machine.Machine.touch_batch` fed numeric
    arrays through :meth:`~repro.machine.Machine.touch_batch_array` (the
    sweep pool's replay path, and the headline ``batched_ops_per_sec``).

    Each arm drives the stream through a fresh machine twice: the first
    pass populates the pages (a cold-fault storm whose cost is the slow
    fault path, not the access path) and the second, timed pass
    measures the steady-state throughput the paper's long workloads
    actually see — the same warm-up discipline ``bench_kpromoted`` uses.
    The driver's cold first pass is also timed and reported as
    ``cold_batched_ops_per_sec``.  ``identical`` asserts both arms
    ended both passes with bit-identical counters and virtual clocks.
    """

    def materialize() -> tuple[Machine, ZipfWorkload]:
        workload = ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2)
        machine = Machine(_config(seed), "static")
        workload.setup(machine)
        return machine, workload

    # The numeric stream is machine-independent: build it once and share
    # it across repeats, exactly as the sweep pool does.
    batches = list(ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2).numeric_batches())

    # Timing runs: fresh machine per repeat so every repeat warms up the
    # same way and both arms see the same starting point.  The baseline
    # is one Machine.touch call per access.
    per_access_best = float("inf")
    rows = [
        row for vpages, writes in batches for row in zip(vpages.tolist(), writes.tolist())
    ]
    for _ in range(max(1, repeats)):
        machine, workload = materialize()
        process, lines = workload.process, workload.lines
        for vpage, is_write in rows:  # warm pass: fault every page in
            machine.touch(process, vpage, is_write=is_write, lines=lines)
        with _gc_paused():
            start = time.perf_counter()
            for vpage, is_write in rows:
                machine.touch(process, vpage, is_write=is_write, lines=lines)
            per_access_best = min(per_access_best, time.perf_counter() - start)
    per_state = _machine_state(machine)

    array_best = cold_best = float("inf")
    for _ in range(max(1, repeats)):
        machine, workload = materialize()
        with _gc_paused():
            start = time.perf_counter()
            machine.touch_batch_array(workload.process, batches, lines=workload.lines)
            cold_best = min(cold_best, time.perf_counter() - start)
            start = time.perf_counter()
            machine.touch_batch_array(workload.process, batches, lines=workload.lines)
            array_best = min(array_best, time.perf_counter() - start)
    array_state = _machine_state(machine)

    per_ops = ops / per_access_best
    array_ops = ops / array_best
    return {
        "ops": ops,
        "pages": pages,
        "repeats": repeats,
        "per_access_ops_per_sec": round(per_ops),
        "cold_batched_ops_per_sec": round(ops / cold_best),
        "batched_ops_per_sec": round(array_ops),
        "speedup": round(array_ops / per_ops, 2),
        "identical": per_state == array_state,
    }


def bench_kpromoted(
    *, pages: int = 4000, warm_ops: int = 50_000, runs: int = 200, seed: int = 42
) -> dict[str, Any]:
    """Pages scanned per host second by the kpromoted daemon."""
    workload = ZipfWorkload(pages, warm_ops, seed=seed, write_ratio=0.2)
    machine = Machine(_config(seed), "multiclock")
    workload.setup(machine)
    machine.touch_batch(workload.blocks())  # warm the lists
    daemons = machine.system.policy._kpromoted  # type: ignore[attr-defined]
    scanned = machine.stats.counter("kpromoted.pages_scanned")
    before = scanned.n
    start = time.perf_counter()
    for _ in range(runs):
        for daemon in daemons:
            daemon.run(machine.clock.now_ns)
    elapsed = time.perf_counter() - start
    pages_scanned = scanned.n - before
    return {
        "runs": runs,
        "pages_scanned": pages_scanned,
        "pages_per_sec": round(pages_scanned / elapsed) if elapsed > 0 else 0,
        "wall_seconds": round(elapsed, 4),
    }


def bench_ycsb_a(
    *, n_records: int = 10_000, ops: int = 50_000, seed: int = 42
) -> dict[str, Any]:
    """Host wall time of a YCSB Load + Workload A run under multiclock."""
    from repro.run import run_workload
    from repro.workloads.ycsb import YCSBSession

    session = YCSBSession(n_records, seed=seed)
    footprint = session.footprint_pages()
    config = SimulationConfig(
        dram_pages=(max(256, footprint // 3),),
        pm_pages=(footprint * 2,),
        daemons=DaemonConfig(),
        seed=seed,
    )
    machine = Machine(config, "multiclock")
    start = time.perf_counter()
    run_workload(session.load_phase(), config, machine=machine)
    result = run_workload(session.phase("A", ops), config, machine=machine)
    elapsed = time.perf_counter() - start
    return {
        "n_records": n_records,
        "ops": ops,
        "wall_seconds": round(elapsed, 3),
        "accesses": result.accesses,
        "accesses_per_wall_sec": round(result.accesses / elapsed) if elapsed > 0 else 0,
        "virtual_throughput_ops": round(result.throughput_ops),
        "dram_access_fraction": round(result.dram_access_fraction, 4),
    }


def bench_trace(
    ops: int = 100_000, *, pages: int = 4000, repeats: int = 3, seed: int = 42
) -> dict[str, Any]:
    """Tracing off vs armed on an identical multiclock run.

    ``multiclock`` (not ``static``) so daemons, migrations, and LRU
    movement actually fire tracepoints — an access-only run would
    measure almost nothing.
    """

    def run_once(traced: bool) -> tuple[Machine, float, int]:
        workload = ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2)
        machine = Machine(_config(seed), "multiclock")
        if traced:
            machine.enable_tracing()
        workload.setup(machine)
        stream = list(workload.blocks())
        with _gc_paused():
            start = time.perf_counter()
            machine.touch_batch(stream)
            elapsed = time.perf_counter() - start
        emitted = machine.system.trace.events_emitted if traced else 0
        return machine, elapsed, emitted

    off_best = on_best = float("inf")
    for _ in range(max(1, repeats)):
        machine, elapsed, _ = run_once(traced=False)
        off_best = min(off_best, elapsed)
    off_state = _machine_state(machine)
    for _ in range(max(1, repeats)):
        machine, elapsed, emitted = run_once(traced=True)
        on_best = min(on_best, elapsed)
    on_state = _machine_state(machine)

    off_ops = ops / off_best
    on_ops = ops / on_best
    return {
        "ops": ops,
        "pages": pages,
        "repeats": repeats,
        "off_ops_per_sec": round(off_ops),
        "on_ops_per_sec": round(on_ops),
        "overhead": round(off_ops / on_ops, 3),
        "events_emitted": emitted,
        "identical": off_state == on_state,
    }


def bench_metrics(
    ops: int = 100_000, *, pages: int = 4000, repeats: int = 3, seed: int = 42
) -> dict[str, Any]:
    """Metrics off vs armed on an identical multiclock run.

    The armed run carries the ``vmstat_sampler`` daemon, gauge series,
    and the six hot-path histograms; ``identical`` asserts none of that
    moved a counter or the virtual clocks (the metrics-off/metrics-on
    bit-identity the instrumentation guards promise).
    """

    def run_once(armed: bool) -> tuple[Machine, float, Any]:
        workload = ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2)
        machine = Machine(_config(seed), "multiclock")
        # Dense sampling (1ms virtual) so short benchmark runs still
        # exercise the cost-free sampler daemon inside the identity check.
        registry = (
            machine.enable_metrics(sample_interval_s=0.001) if armed else None
        )
        workload.setup(machine)
        stream = list(workload.blocks())
        with _gc_paused():
            start = time.perf_counter()
            machine.touch_batch(stream)
            elapsed = time.perf_counter() - start
        return machine, elapsed, registry

    off_best = on_best = float("inf")
    for _ in range(max(1, repeats)):
        machine, elapsed, _ = run_once(armed=False)
        off_best = min(off_best, elapsed)
    off_state = _machine_state(machine)
    for _ in range(max(1, repeats)):
        machine, elapsed, registry = run_once(armed=True)
        on_best = min(on_best, elapsed)
    on_state = _machine_state(machine)

    off_ops = ops / off_best
    on_ops = ops / on_best
    return {
        "ops": ops,
        "pages": pages,
        "repeats": repeats,
        "off_ops_per_sec": round(off_ops),
        "on_ops_per_sec": round(on_ops),
        "overhead": round(off_ops / on_ops, 3),
        "samples": registry.samples,
        "observations": sum(h.count for h in registry.histograms.values()),
        "identical": off_state == on_state,
    }


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

    # Best-of-repeats on both arms, like every other benchmark here: the
    # fork in the pool arm is sensitive to host scheduling noise, and a
    # gc pass before each timing keeps collector pauses (and fork cost
    # proportional to garbage) out of the comparison.
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


def bench_journal(
    *,
    pages: int = 800,
    ops: int = 8_000,
    policies: tuple[str, ...] = ("static", "multiclock"),
    workers: int = 2,
    seed: int = 42,
) -> dict[str, Any]:
    """The same local-pool sweep with the span journal off vs armed.

    The journal writes one flushed NDJSON line per control-plane event —
    a per-*cell* cost, so its overhead must stay invisible next to the
    cells themselves.  ``identical`` pins the contract that buys the
    byte-identical journal-off report: arming observability never
    changes what the sweep computes.
    """
    import tempfile

    from repro.obs import Journal, SweepObserver, read_journal
    from repro.sweep import SweepCell, SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench-journal",
        cells=tuple(
            SweepCell(
                id=policy,
                runner="run-workload",
                params={
                    "policy": policy,
                    "workload": {
                        "kind": "zipf", "pages": pages, "ops": ops,
                        "seed": seed, "write_ratio": 0.2,
                    },
                    "config": {"dram_pages": 1024, "pm_pages": 8192,
                               "seed": seed},
                },
            )
            for policy in policies
        ),
    )

    gc.collect()
    with _gc_paused():
        start = time.perf_counter()
        off = run_sweep(spec, workers=workers)
        off_s = time.perf_counter() - start

    with tempfile.NamedTemporaryFile(suffix=".ndjson", delete=False) as tmp:
        journal_path = tmp.name
    try:
        obs = SweepObserver(journal=Journal(journal_path))
        gc.collect()
        with _gc_paused():
            start = time.perf_counter()
            armed = run_sweep(spec, workers=workers, obs=obs)
            armed_s = time.perf_counter() - start
        obs.close("done")
        events = len(read_journal(journal_path))
    finally:
        os.unlink(journal_path)

    return {
        "cells": len(policies),
        "ops_per_cell": ops,
        "workers": workers,
        "off_s": round(off_s, 3),
        "armed_s": round(armed_s, 3),
        "overhead": round(armed_s / off_s, 3) if off_s > 0 else 0.0,
        "journal_events": events,
        "identical": off.ok and armed.ok
        and armed.payloads() == off.payloads(),
    }


def run_suite(*, smoke: bool = False, repeats: int = 3) -> dict[str, Any]:
    """Run all benchmarks; smoke mode uses CI-sized workloads."""
    if smoke:
        touch = bench_touch(60_000, pages=2000, repeats=max(1, min(repeats, 2)))
        kpromoted = bench_kpromoted(pages=1000, warm_ops=10_000, runs=30)
        ycsb = bench_ycsb_a(n_records=2_000, ops=5_000)
        trace = bench_trace(30_000, pages=2000, repeats=max(1, min(repeats, 2)))
        # All four default policies, and cells big enough that the
        # pool's per-worker fork-and-pipe overhead stays well below the
        # cells themselves: the pool's CPU critical path measured
        # 0.47x-0.69x of the sequential loop's CPU over 10 runs.
        sweep = bench_sweep(pages=1500, ops=20_000)
        journal = bench_journal(pages=400, ops=4_000)
        metrics = bench_metrics(30_000, pages=2000, repeats=max(1, min(repeats, 2)))
    else:
        touch = bench_touch(repeats=repeats)
        kpromoted = bench_kpromoted()
        ycsb = bench_ycsb_a()
        trace = bench_trace(repeats=repeats)
        sweep = bench_sweep()
        journal = bench_journal()
        metrics = bench_metrics(repeats=repeats)
    return {
        "meta": {
            "mode": "smoke" if smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "touch": touch,
        "kpromoted": kpromoted,
        "ycsb_a": ycsb,
        "trace": trace,
        "sweep": sweep,
        "journal": journal,
        "metrics": metrics,
    }


def write_results(results: dict[str, Any], path: str = DEFAULT_OUT) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")


def render(results: dict[str, Any]) -> str:
    """Human-readable summary of one suite run."""
    touch = results["touch"]
    kpromoted = results["kpromoted"]
    ycsb = results["ycsb_a"]
    lines = [
        f"touch      per-access {touch['per_access_ops_per_sec']:>10,} ops/s"
        f"  driver {touch['batched_ops_per_sec']:>10,} ops/s"
        f"  speedup {touch['speedup']:.2f}x"
        f"  identical={touch['identical']}",
        f"kpromoted  {kpromoted['pages_per_sec']:>10,} pages/s"
        f"  ({kpromoted['pages_scanned']:,} pages in {kpromoted['wall_seconds']}s)",
        f"ycsb-a     {ycsb['wall_seconds']}s wall for load+{ycsb['ops']:,} ops"
        f"  ({ycsb['accesses_per_wall_sec']:,} accesses/s host,"
        f" {ycsb['virtual_throughput_ops']:,} ops/s virtual)",
    ]
    trace = results.get("trace")
    if trace is not None:
        lines.append(
            f"trace      off {trace['off_ops_per_sec']:>10,} ops/s"
            f"  armed {trace['on_ops_per_sec']:>10,} ops/s"
            f"  overhead {trace['overhead']:.3f}x"
            f"  ({trace['events_emitted']:,} events)"
            f"  identical={trace['identical']}"
        )
    sweep = results.get("sweep")
    if sweep is not None:
        lines.append(
            f"sweep      {sweep['cells']} cells sequential {sweep['sequential_s']}s"
            f"  {sweep['workers']} workers {sweep['parallel_s']}s"
            f"  speedup {sweep['speedup']:.2f}x"
            f"  CPU {sweep['sequential_cpu_s']}s vs {sweep['parallel_cpu_s']}s"
            f"  cached rerun {sweep['cached_rerun_seconds']}s"
            f" ({sweep['cached_rerun_workers']} spawned)"
            f"  ({sweep['cpu_count']} core(s))"
            f"  identical={sweep['identical']}"
        )
    journal = results.get("journal")
    if journal is not None:
        lines.append(
            f"journal    {journal['cells']} cells off {journal['off_s']}s"
            f"  armed {journal['armed_s']}s"
            f"  overhead {journal['overhead']:.3f}x"
            f"  ({journal['journal_events']:,} events)"
            f"  identical={journal['identical']}"
        )
    metrics = results.get("metrics")
    if metrics is not None:
        lines.append(
            f"metrics    off {metrics['off_ops_per_sec']:>10,} ops/s"
            f"  armed {metrics['on_ops_per_sec']:>10,} ops/s"
            f"  overhead {metrics['overhead']:.3f}x"
            f"  ({metrics['samples']:,} samples,"
            f" {metrics['observations']:,} observations)"
            f"  identical={metrics['identical']}"
        )
    return "\n".join(lines)
