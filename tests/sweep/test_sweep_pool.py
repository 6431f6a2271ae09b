"""Pool-level properties: crash isolation, retry bounds, timeouts,
resuming through the result cache, and the scheduling-independent
merge."""

import multiprocessing
import os
import re

import pytest

from repro.sweep import (
    SweepCell,
    SweepSpec,
    register_runner,
    run_sweep,
)
from repro.sweep import pool


def declarative_cells(policies, ops=2000, pages=300, seed=42):
    return tuple(
        SweepCell(
            id=f"{policy}/zipf/s{seed}",
            runner="run-workload",
            params={
                "policy": policy,
                "workload": {
                    "kind": "zipf", "pages": pages, "ops": ops,
                    "seed": seed, "write_ratio": 0.0,
                },
                "config": {
                    "dram_pages": 128, "pm_pages": 1024,
                    "interval": 0.002, "seed": seed,
                },
            },
        )
        for policy in policies
    )


def test_parallel_merge_equals_sequential():
    spec = SweepSpec("grid", declarative_cells(("static", "multiclock", "nimble")))
    sequential = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert sequential.ok and parallel.ok
    assert [o.cell.id for o in parallel.outcomes] == [o.cell.id for o in sequential.outcomes]
    assert parallel.payloads() == sequential.payloads()


def test_worker_crash_is_retried_and_heals(tmp_path):
    marker = str(tmp_path / "crash.marker")
    spec = SweepSpec(
        "crash",
        (
            SweepCell("boom", "flaky",
                      {"marker": marker, "mode": "exit", "payload": "recovered"}),
            *declarative_cells(("static",)),
        ),
    )
    result = run_sweep(spec, workers=2)
    assert result.ok
    boom = result.outcomes[0]
    assert boom.payload == "recovered"
    assert boom.attempts == 2  # first attempt hard-exited, second succeeded


def test_persistent_crash_records_failed_cell_without_aborting(tmp_path):
    spec = SweepSpec(
        "persistent",
        (
            SweepCell("always-boom", "flaky", {"mode": "exit"}),  # no marker: fails forever
            *declarative_cells(("static",)),
        ),
    )
    result = run_sweep(spec, workers=2, max_attempts=2)
    assert not result.ok
    failed = result.outcomes[0]
    assert failed.status == "failed"
    assert failed.attempts == 2
    assert "signal" in failed.error or "crashed" in failed.error
    # The rest of the grid still completed.
    assert result.outcomes[1].ok


def test_timeout_kills_the_cell_and_retries(tmp_path):
    marker = str(tmp_path / "hang.marker")
    spec = SweepSpec(
        "hang",
        (SweepCell("sleepy", "flaky",
                   {"marker": marker, "mode": "hang", "payload": "woke"}),),
    )
    result = run_sweep(spec, workers=1, timeout_s=0.5)
    assert result.ok
    assert result.outcomes[0].attempts == 2
    assert result.outcomes[0].payload == "woke"


def test_timeout_exhaustion_is_a_failed_cell():
    spec = SweepSpec("hang-forever", (SweepCell("sleepy", "flaky", {"mode": "hang"}),))
    result = run_sweep(spec, workers=1, timeout_s=0.3, max_attempts=1)
    assert not result.ok
    assert result.outcomes[0].status == "failed"
    assert "timeout" in result.outcomes[0].error


def test_timeout_error_reports_elapsed_wall_time_and_attempt():
    spec = SweepSpec("hang-forever", (SweepCell("sleepy", "flaky", {"mode": "hang"}),))
    result = run_sweep(spec, workers=1, timeout_s=0.3, max_attempts=1)
    error = result.outcomes[0].error
    match = re.fullmatch(
        r"timeout: attempt (\d+) killed after (\d+\.\d\d)s wall \(limit 0\.3s\)",
        error,
    )
    assert match, f"unexpected timeout error format: {error!r}"
    assert int(match.group(1)) == 1
    # The reported time is what actually elapsed, not the nominal limit.
    assert float(match.group(2)) >= 0.3


@pytest.mark.parametrize("timeout_s", [-1.0, 0.0, float("nan"), float("inf")])
def test_bad_timeout_is_a_one_line_error_before_any_fork(tmp_path, timeout_s):
    marker = tmp_path / "ran.marker"
    spec = SweepSpec("bad-timeout", (SweepCell(
        "boom", "flaky", {"marker": str(marker), "mode": "exit"}),))
    with pytest.raises(ValueError) as excinfo:
        run_sweep(spec, workers=2, timeout_s=timeout_s)
    message = str(excinfo.value)
    assert "--timeout-s" in message and "\n" not in message
    assert not marker.exists()  # no worker ever ran the cell


@register_runner("test-log-order")
def _log_order(params):
    with open(params["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{params['name']}\n")
    marker = params.get("crash_marker")
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(9)
    return params["name"]


def test_retry_goes_to_the_front_of_the_queue(tmp_path):
    # One crashing cell ahead of three healthy ones, one worker: the
    # retry must run immediately after the failure, not wait behind the
    # rest of the grid.
    log = str(tmp_path / "order.log")
    marker = str(tmp_path / "crash.marker")
    cells = [
        SweepCell("boom", "test-log-order",
                  {"log": log, "name": "boom", "crash_marker": marker}),
    ] + [
        SweepCell(name, "test-log-order", {"log": log, "name": name})
        for name in ("a", "b", "c")
    ]
    result = run_sweep(SweepSpec("ordered", tuple(cells)), workers=1)
    assert result.ok
    with open(log, encoding="utf-8") as fh:
        order = fh.read().splitlines()
    assert order == ["boom", "boom", "a", "b", "c"]


def test_resume_skips_completed_cells(tmp_path):
    # A sweep that left one cell failed is resumed by running it again:
    # the cache serves the completed cells, only the failed one runs.
    log = str(tmp_path / "order.log")
    cache_dir = str(tmp_path / "cache")
    cells = [
        SweepCell("boom", "test-log-order",
                  {"log": log, "name": "boom",
                   "crash_marker": str(tmp_path / "crash.marker")}),
    ] + [
        SweepCell(name, "test-log-order", {"log": log, "name": name})
        for name in ("a", "b")
    ]
    spec = SweepSpec("resumable", tuple(cells))
    first = run_sweep(spec, workers=1, max_attempts=1, cache_dir=cache_dir)
    assert [o.ok for o in first.outcomes] == [False, True, True]

    resumed = run_sweep(spec, workers=1, max_attempts=1, cache_dir=cache_dir)
    assert resumed.ok
    assert [o.cached for o in resumed.outcomes] == [False, True, True]
    with open(log, encoding="utf-8") as fh:
        assert fh.read().splitlines() == ["boom", "a", "b", "boom"]


def test_resume_reruns_failed_cells(tmp_path):
    cache_dir = str(tmp_path / "cache")
    marker = str(tmp_path / "later.marker")
    spec = SweepSpec(
        "heal-on-resume",
        (SweepCell("boom", "flaky",
                   {"marker": marker, "mode": "exit", "payload": "recovered"}),),
    )
    first = run_sweep(spec, workers=1, max_attempts=1, cache_dir=cache_dir)
    assert not first.ok  # single attempt crashed (and planted the marker)

    resumed = run_sweep(spec, workers=1, max_attempts=1, cache_dir=cache_dir)
    assert resumed.ok and not resumed.outcomes[0].cached
    assert resumed.outcomes[0].payload == "recovered"
    # The healed cell is now checkpointed like any other.
    again = run_sweep(spec, workers=1, max_attempts=1, cache_dir=cache_dir)
    assert again.outcomes[0].cached and again.spawned_workers == 0


def test_resume_carries_recorded_attempt_counts(tmp_path):
    cache_dir = str(tmp_path / "cache")
    marker = str(tmp_path / "crash.marker")
    spec = SweepSpec(
        "carry",
        (SweepCell("boom", "flaky",
                   {"marker": marker, "mode": "exit", "payload": "recovered"}),),
    )
    first = run_sweep(spec, workers=1, cache_dir=cache_dir)
    assert first.ok
    assert first.outcomes[0].attempts == 2  # crashed once, then healed

    rerun = run_sweep(spec, workers=1, cache_dir=cache_dir)
    assert rerun.outcomes[0].cached
    # The outcome reports what the cell actually cost, not zero.
    assert rerun.outcomes[0].attempts == 2
    assert rerun.spawned_workers == 0


def test_duplicate_cell_ids_rejected():
    cell = declarative_cells(("static",))[0]
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec("dup", (cell, cell))


def test_unknown_runner_is_a_failed_cell_not_an_abort():
    spec = SweepSpec("bogus", (SweepCell("x", "no-such-runner", {}),))
    result = run_sweep(spec, max_attempts=1)
    assert not result.ok
    assert "unknown sweep runner" in result.outcomes[0].error


def test_spawn_start_method_matches_fork(monkeypatch):
    cells = tuple(
        SweepCell(f"c{i}", "flaky",
                  {"mode": "sleep", "sleep_s": 0.01, "payload": f"p{i}"})
        for i in range(4)
    )
    spec = SweepSpec("spawnable", cells)
    fork = run_sweep(spec, workers=2)
    contexts = []

    def spawn_context():
        contexts.append("spawn")
        return multiprocessing.get_context("spawn")

    monkeypatch.setattr(pool, "_context", spawn_context)
    spawned = run_sweep(spec, workers=2)
    assert contexts == ["spawn"]
    assert spawned.ok
    assert spawned.spawned_workers == 2
    assert spawned.payloads() == fork.payloads()
