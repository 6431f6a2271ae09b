"""The journal consumers: wall-time attribution (fold_profile) and the
Chrome trace-event export (timeline_records)."""

import math

from repro.obs import (
    Journal,
    fold_profile,
    read_journal,
    render_profile,
    timeline_records,
)


def synthetic_sweep_journal(path):
    """A hand-timed two-worker sweep: exact phase boundaries, one cache
    hit, and one cell on each of two local workers."""
    journal = Journal(path)
    sweep = journal.begin("sweep", t=100.0, cells=3)
    prep = journal.begin("prepare", t=100.0)
    journal.end(prep, t=100.5)
    run1 = journal.begin("cell.run", t=101.0, actor="worker/local/42",
                         cell="c1")
    run3 = journal.begin("cell.run", t=101.5, actor="worker/local/43",
                         cell="c3")
    journal.end(run1, t=102.0, ok=True)
    journal.end(run3, t=102.5, ok=True)
    journal.point("cell.cache_hit", t=102.5, cell="c2", key="k")
    journal.point("commit", t=102.5, cell="c2", ok=True)
    journal.point("commit", t=102.5, cell="c1", ok=True)
    journal.point("commit", t=102.5, cell="c3", ok=True)
    merge = journal.begin("merge", t=102.5)
    journal.end(merge, t=103.0)
    journal.end(sweep, t=103.0, state="done")
    journal.close()
    return read_journal(path)


def test_fold_profile_partitions_the_wall_exactly(tmp_path):
    events = synthetic_sweep_journal(str(tmp_path / "j.ndjson"))
    profile = fold_profile(events)

    assert math.isclose(profile["wall_s"], 3.0)
    assert profile["coverage"] >= 0.95  # the acceptance-criteria floor
    phases = profile["phases"]
    assert math.isclose(sum(phases.values()), profile["wall_s"],
                        rel_tol=1e-9)
    assert math.isclose(phases["prepare_s"], 0.5)
    assert math.isclose(phases["connect_s"], 0.5)  # prep end → first run
    assert math.isclose(phases["execute_s"], 1.5)  # first run → last run
    assert math.isclose(phases["merge_s"], 0.5)


def test_fold_profile_attribution_and_counts(tmp_path):
    events = synthetic_sweep_journal(str(tmp_path / "j.ndjson"))
    profile = fold_profile(events)

    attribution = profile["attribution"]
    # Busy time across both workers: 1.0s each.
    assert math.isclose(attribution["worker_compute_s"], 2.0)
    assert math.isclose(attribution["merge_s"], 0.5)

    counts = profile["counts"]
    assert counts["cell_runs"] == 2 and counts["cell_runs_aborted"] == 0
    assert counts["commits"] == 3
    assert counts["cached"] == 1


def test_fold_profile_survives_an_empty_journal():
    profile = fold_profile([])
    assert profile["wall_s"] == 0.0
    assert profile["counts"]["commits"] == 0


def test_render_profile_is_a_text_table(tmp_path):
    events = synthetic_sweep_journal(str(tmp_path / "j.ndjson"))
    text = render_profile(fold_profile(events))
    assert "sweep wall time 3.000s" in text
    assert "worker_compute" in text
    assert "3 commit(s)" in text


def test_timeline_lanes_group_actors_by_process(tmp_path):
    events = synthetic_sweep_journal(str(tmp_path / "j.ndjson"))
    records, lanes = timeline_records(events)

    assert lanes == 2  # driver + local pool (workers ride as threads)
    meta = [r for r in records if r["ph"] == "M"]
    process_names = {r["args"]["name"] for r in meta
                     if r["name"] == "process_name"}
    assert process_names == {"driver", "local pool"}
    thread_names = {r["args"]["name"] for r in meta
                    if r["name"] == "thread_name"}
    assert {"worker 42", "worker 43"} <= thread_names


def test_timeline_span_phases_and_rebased_timestamps(tmp_path):
    events = synthetic_sweep_journal(str(tmp_path / "j.ndjson"))
    records, _ = timeline_records(events)

    slices = [r for r in records if r["ph"] == "X"]
    assert {r["name"].split()[0] for r in slices} >= {
        "sweep", "prepare", "cell.run", "merge"}
    instants = [r for r in records if r["ph"] == "i"]
    assert any(r["name"].startswith("commit") for r in instants)
    # Rebased to the first event and scaled to microseconds.
    assert min(r["ts"] for r in records if "ts" in r) == 0.0
    sweep_slice = next(r for r in slices if r["name"] == "sweep")
    assert math.isclose(sweep_slice["dur"], 3.0 * 1_000_000)


def test_timeline_of_nothing_is_empty():
    assert timeline_records([]) == ([], 0)
