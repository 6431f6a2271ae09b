"""Result-cache properties: hits spawn no work, corruption degrades to a
live run, failures never poison the cache, and concurrent writers of one
entry never collide."""

import multiprocessing as mp
import os

import pytest

from repro.obs import SweepObserver
from repro.sweep import (
    ResultCache,
    SweepCell,
    SweepSpec,
    atomic_write_json,
    cell_fingerprint,
    register_runner,
    run_sweep,
)
from repro.sweep.pool import _Ledger


@register_runner("test-cache-log")
def _cache_log(params):
    # One line per execution — proof of whether the cache served us.
    with open(params["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{params['value']}\n")
    return {"value": params["value"]}


def _log_lines(log_path):
    try:
        with open(log_path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except FileNotFoundError:
        return []


def _grid(tmp_path, n=3):
    log = str(tmp_path / "invocations.log")
    return log, SweepSpec(
        "cached-grid",
        tuple(
            SweepCell(f"cell{i}", "test-cache-log", {"log": log, "value": i})
            for i in range(n)
        ),
    )


def test_cache_hit_serves_payload_without_spawning_workers(tmp_path):
    log, spec = _grid(tmp_path)
    cache_dir = str(tmp_path / "cache")

    cold = run_sweep(spec, workers=2, cache_dir=cache_dir)
    assert cold.ok
    assert cold.spawned_workers > 0
    assert len(_log_lines(log)) == 3

    warm = run_sweep(spec, workers=2, cache_dir=cache_dir)
    assert warm.ok
    assert warm.spawned_workers == 0  # every cell was a fingerprint hit
    assert len(_log_lines(log)) == 3  # nothing re-ran
    assert all(o.cached for o in warm.outcomes)
    assert warm.payloads() == cold.payloads()


def test_sibling_committed_mid_run_is_served_from_cache(tmp_path):
    """A cell whose fingerprint-identical sibling committed after dispatch
    began is served from the cache, not re-run, under the local pool too."""
    log = str(tmp_path / "invocations.log")
    params = {"log": log, "value": 7}
    spec = SweepSpec("siblings", (SweepCell("first", "test-cache-log", params),
                                  SweepCell("second", "test-cache-log", params)))
    result = run_sweep(spec, workers=1, cache_dir=str(tmp_path / "cache"))
    assert result.ok
    first, second = result.outcomes
    assert not first.cached and second.cached
    assert second.payload == first.payload == {"value": 7}
    assert _log_lines(log) == ["7"]  # executed once


def test_cache_is_shared_across_grid_names_and_cell_ids(tmp_path):
    # The fingerprint digests runner + params only, so a renamed grid
    # with renumbered cell ids still hits the same entries.
    log, spec = _grid(tmp_path)
    cache_dir = str(tmp_path / "cache")
    run_sweep(spec, cache_dir=cache_dir)

    renamed = SweepSpec(
        "other-grid",
        tuple(
            SweepCell(f"renamed{i}", cell.runner, cell.params)
            for i, cell in enumerate(spec.cells)
        ),
    )
    warm = run_sweep(renamed, cache_dir=cache_dir)
    assert warm.ok
    assert warm.spawned_workers == 0
    assert len(_log_lines(log)) == 3


def test_corrupted_cache_entry_falls_back_to_a_live_run(tmp_path):
    log, spec = _grid(tmp_path, n=2)
    cache_dir = str(tmp_path / "cache")
    run_sweep(spec, cache_dir=cache_dir)
    assert len(_log_lines(log)) == 2

    key0 = cell_fingerprint(spec.cells[0])
    key1 = cell_fingerprint(spec.cells[1])
    path0 = os.path.join(cache_dir, f"{key0}.json")
    path1 = os.path.join(cache_dir, f"{key1}.json")
    with open(path0, "w", encoding="utf-8") as fh:
        fh.write("{ this is not json")  # corrupted
    with open(path1, "w", encoding="utf-8") as fh:
        fh.write("")  # truncated

    rerun = run_sweep(spec, cache_dir=cache_dir)
    assert rerun.ok  # degraded to live runs, never an abort
    assert not any(o.cached for o in rerun.outcomes)
    assert len(_log_lines(log)) == 4  # both cells executed again
    # The live runs repaired the entries.
    assert ResultCache(cache_dir).load(key0)["payload"] == {"value": 0}
    assert ResultCache(cache_dir).load(key1)["payload"] == {"value": 1}


def test_cache_entry_with_wrong_fingerprint_is_a_miss(tmp_path):
    log, spec = _grid(tmp_path, n=1)
    cache_dir = str(tmp_path / "cache")
    key = cell_fingerprint(spec.cells[0])
    cache = ResultCache(cache_dir)
    # A hand-copied file whose recorded fingerprint doesn't match its key.
    cache.store("0" * 64, cell_id="x", attempts=1, payload={"value": 99})
    os.replace(
        os.path.join(cache_dir, "0" * 64 + ".json"),
        os.path.join(cache_dir, f"{key}.json"),
    )
    result = run_sweep(spec, cache_dir=cache_dir)
    assert result.ok
    assert not result.outcomes[0].cached
    assert result.payloads() == {"cell0": {"value": 0}}


def test_factory_cells_with_live_objects_are_rejected(tmp_path):
    """Params are JSON or the grid is refused: a lambda in params is a
    one-line ValueError from SweepSpec, before any worker forks."""
    log = str(tmp_path / "invocations.log")
    with pytest.raises(ValueError, match="non-JSON params") as excinfo:
        SweepSpec(
            "factory",
            (
                SweepCell(
                    "live", "test-cache-log",
                    {"log": log, "value": 7, "factory": lambda: None},
                ),
            ),
        )
    assert "'live'" in str(excinfo.value)
    assert "\n" not in str(excinfo.value)
    assert _log_lines(log) == []  # nothing ran


def test_worker_hard_death_mid_cell_leaves_cache_untouched(tmp_path):
    # Models an OOM kill: the worker dies between starting the cell and
    # reporting a result.  Only the *parent* writes cache entries, and
    # only after harvesting a success, so the cache must stay empty.
    cache_dir = str(tmp_path / "cache")
    spec = SweepSpec(
        "oom", (SweepCell("victim", "flaky", {"mode": "exit"}),)
    )
    result = run_sweep(spec, cache_dir=cache_dir, max_attempts=2)
    assert not result.ok
    assert os.listdir(cache_dir) == []

    rerun = run_sweep(spec, cache_dir=cache_dir, max_attempts=1)
    assert not rerun.outcomes[0].cached  # no stale success to be served
    assert rerun.spawned_workers > 0


def test_only_successes_are_cached_failures_always_rerun(tmp_path):
    log = str(tmp_path / "invocations.log")
    cache_dir = str(tmp_path / "cache")
    marker = str(tmp_path / "heal.marker")
    spec = SweepSpec(
        "mixed",
        (
            SweepCell("heals", "flaky",
                      {"marker": marker, "mode": "exit", "payload": "recovered"}),
            SweepCell("fine", "test-cache-log", {"log": log, "value": 1}),
        ),
    )
    first = run_sweep(spec, cache_dir=cache_dir)
    assert first.ok  # "heals" recovered on attempt 2
    assert len(os.listdir(cache_dir)) == 2  # both successes stored

    os.remove(marker)  # a fresh run would crash again...
    warm = run_sweep(spec, cache_dir=cache_dir)
    assert warm.ok  # ...but the cache serves the recorded success
    assert all(o.cached for o in warm.outcomes)
    assert warm.spawned_workers == 0
    # Cached attempts reflect what the original run actually consumed.
    assert warm.payloads()["heals"] == "recovered"
    assert [o.attempts for o in warm.outcomes] == [2, 1]


def _store_repeatedly(cache_dir, key, times):
    cache = ResultCache(cache_dir)
    for _ in range(times):
        cache.store(key, cell_id="shared", attempts=1, payload={"value": 1})


def test_concurrent_stores_of_one_key_never_collide(tmp_path):
    """Two sweeps finishing a common cell write one entry at once: each
    writer goes through its own temp file, so neither rename fails."""
    cache_dir = str(tmp_path / "cache")
    key = "f" * 64
    ctx = mp.get_context("fork")
    writers = [ctx.Process(target=_store_repeatedly, args=(cache_dir, key, 1000))
               for _ in range(2)]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(60.0)
    assert [proc.exitcode for proc in writers] == [0, 0]
    assert ResultCache(cache_dir).load(key)["payload"] == {"value": 1}
    assert os.listdir(cache_dir) == [f"{key}.json"]  # no temp file left


def test_failed_write_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "entry.json")
    with pytest.raises(TypeError):
        atomic_write_json(path, {"payload": object()})
    assert os.listdir(tmp_path) == []


def _ledger(spec, notes, cache_dir=None):
    return _Ledger(spec, max_attempts=3, cache_dir=cache_dir,
                   obs=SweepObserver(progress=notes.append))


def test_duplicate_result_discarded_at_most_once():
    """Unit-level at-most-once: the first result commits, a late second
    result for the same cell is discarded."""
    cell = SweepCell("dup", "flaky", {"mode": "sleep", "payload": "x"})
    notes = []
    ledger = _ledger(SweepSpec("dups", (cell,)), notes)
    assert ledger.pop() == (cell, 1)
    assert ledger.settle(cell, 1, True, "committed") == "done"
    assert ledger.settle(cell, 1, True, "too late") == "duplicate"
    assert ledger.outcomes["dup"].payload == "committed"
    assert ledger.pop() is None


def test_redispatch_consults_result_cache(tmp_path):
    """A cell requeued after dispatch began is served from the result
    cache when a fingerprint-identical cell has completed in the
    meantime, instead of being re-executed."""
    params = {"mode": "ok", "payload": "shared"}
    first = SweepCell("first", "flaky", params)
    second = SweepCell("second", "flaky", params)  # same fingerprint
    notes = []
    ledger = _ledger(SweepSpec("cache-consult", (first, second)), notes,
                     cache_dir=str(tmp_path / "cache"))
    assert ledger.pop() == (first, 1)  # nothing cached yet: both run
    assert ledger.pop() == (second, 1)
    # "first" commits (and is cached) while "second" sits requeued.
    assert ledger.settle(first, 1, True, {"value": 41}) == "done"
    ledger.requeue(second, 1)
    assert ledger.pop() is None  # served, not handed to a worker
    outcome = ledger.outcomes["second"]
    assert outcome.ok and outcome.cached
    assert outcome.payload == {"value": 41}
    assert any("served from result cache" in n for n in notes)
