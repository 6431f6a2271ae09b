"""Graceful shutdown: escalating kills, SIGINT-safe sweeps, and resuming
an interrupted sweep from the result cache."""

import os
import signal
import threading
import time

import multiprocessing as mp

import pytest

from repro.sweep import (
    ResultCache,
    SweepCell,
    SweepInterrupted,
    SweepSpec,
    cell_fingerprint,
    register_runner,
    run_sweep,
)
from repro.sweep.pool import _kill


def _cooperative(path):
    def on_term(_signo, _frame):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("cleaned up")
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    time.sleep(3600.0)


def _stubborn():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(3600.0)


def test_kill_lets_sigterm_cleanup_run(tmp_path):
    """SIGTERM first: a worker with a handler gets its grace window."""
    witness = str(tmp_path / "witness.txt")
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=_cooperative, args=(witness,))
    proc.start()
    time.sleep(0.2)  # let the child install its handler
    _kill(proc, grace_s=2.0)
    assert not proc.is_alive()
    assert os.path.exists(witness)


def test_kill_escalates_on_sigterm_deaf_process():
    """A process that ignores SIGTERM is SIGKILLed after the grace."""
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=_stubborn)
    proc.start()
    time.sleep(0.2)
    start = time.monotonic()
    _kill(proc, grace_s=0.3)
    assert not proc.is_alive()
    assert time.monotonic() - start < 5.0
    assert proc.exitcode == -signal.SIGKILL


def test_kill_reaps_already_dead_process():
    ctx = mp.get_context("fork")
    proc = ctx.Process(target=lambda: None)
    proc.start()
    proc.join(5.0)
    _kill(proc, grace_s=0.1)  # must not raise or hang
    assert proc.exitcode == 0


@register_runner("test-count-invocations")
def _count_invocations(params):
    # Appends the cell's value once per finished execution — proof of
    # whether a re-run executed the cell again.
    time.sleep(params.get("sleep_s", 0.0))
    with open(params["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{params['value']}\n")
    return params["value"]


def _invocations(log_path):
    try:
        with open(log_path, "r", encoding="utf-8") as fh:
            return [int(line) for line in fh.read().splitlines()]
    except FileNotFoundError:
        return []


def test_sigint_raises_and_a_rerun_resumes_from_the_cache(tmp_path):
    """First SIGINT: stop dispatching, abandon in-flight cells uncached,
    raise SweepInterrupted naming the cache; re-running the same sweep
    serves the finished cells from there and runs only the rest."""
    log = str(tmp_path / "invocations.log")
    cache_dir = str(tmp_path / "cache")
    cells = tuple(
        SweepCell(f"s{i}", "test-count-invocations",
                  {"log": log, "value": i, "sleep_s": 0.4})
        for i in range(4)
    )
    spec = SweepSpec("interruptible", cells)

    def interrupt_soon():
        time.sleep(0.6)  # mid-sweep: some cells done, some in flight
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=interrupt_soon, daemon=True).start()
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(spec, workers=1, cache_dir=cache_dir)
    message = str(excinfo.value)
    assert "re-run the same command" in message and cache_dir in message

    cache = ResultCache(cache_dir)
    finished = {i for i, cell in enumerate(cells)
                if cache.load(cell_fingerprint(cell)) is not None}
    assert 0 < len(finished) < len(cells)  # partial progress kept

    executed_before = len(_invocations(log))
    resumed = run_sweep(spec, workers=1, cache_dir=cache_dir)
    assert resumed.ok
    rerun = _invocations(log)[executed_before:]
    assert sorted(rerun) == sorted(set(range(4)) - finished)
    assert [o.cached for o in resumed.outcomes] == [
        i in finished for i in range(4)
    ]
    # The merged outcomes are those of an uninterrupted run.
    assert [(o.cell.id, o.status, o.attempts, o.payload)
            for o in resumed.outcomes] == [
        (f"s{i}", "done", 1, i) for i in range(4)
    ]
