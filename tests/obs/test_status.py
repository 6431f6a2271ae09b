"""``repro top``'s snapshot, folded from the span journal: the operator
errors, the bar and counts, the Prometheus exposition, retries and the
report's timing rows, and a fold taken while a sweep is in flight."""

import os
import threading
import time

import pytest

from repro.obs import (
    Journal,
    SweepObserver,
    fold_status,
    fold_timing,
    read_journal,
    read_status,
    render_prometheus,
    render_top,
)
from repro.sweep import SweepCell, SweepSpec, run_sweep


def eight_cell_journal(path):
    """A hand-timed sweep of 8 cells, still running: 3 done, 1 cached,
    1 failed, 2 in flight, 1 pending."""
    journal = Journal(path)
    journal.begin("sweep", t=100.0, spec="repro-sweep", cells=8)
    journal.point("cell.cache_hit", t=100.1, cell="c0", key="k")
    for i, t in ((1, 101.0), (2, 102.0), (3, 103.0)):
        sid = journal.begin("cell.run", t=t - 1.0, cell=f"c{i}",
                            actor="worker/local/7")
        journal.end(sid, t=t, ok=True)
        journal.point("cell.done", t=t, cell=f"c{i}", attempt=1,
                      wall_s=1.0)
    journal.point("cell.failed", t=103.5, cell="c4", attempt=3,
                  error="boom", wall_s=0.5)
    journal.begin("cell.run", t=103.5, cell="c5", actor="worker/local/7")
    journal.begin("cell.run", t=104.0, cell="c6", actor="worker/local/8")
    return journal


def test_a_sweep_that_just_opened_reads_running_and_all_pending(tmp_path):
    path = str(tmp_path / "j.ndjson")
    journal = Journal(path)
    journal.begin("sweep", t=50.0, spec="repro-sweep", cells=10)
    status = read_status(path)
    assert status["state"] == "running"
    assert status["total"] == 10 and status["spec"] == "repro-sweep"
    assert status["trace"] == journal.trace_id
    assert status["cells"]["pending"] == 10
    assert status["started_unix"] == status["updated_unix"] == 50.0


def test_finish_is_terminal_and_idempotent(tmp_path):
    """Closing the observer ends the open spans with its state; the
    first terminal state wins."""
    path = str(tmp_path / "j.ndjson")
    obs = SweepObserver(journal=eight_cell_journal(path))
    obs.close("interrupted")
    obs.close("done")  # too late: the journal is closed
    status = read_status(path)
    assert status["state"] == "interrupted"
    assert status["cells"]["leased"] == 0
    assert status["eta_s"] == 0.0


def test_no_tmp_litter_and_always_valid_json(tmp_path):
    """The journal is appended in place, and a fold taken mid-write
    skips the torn last line."""
    path = str(tmp_path / "j.ndjson")
    eight_cell_journal(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ev": "point", "span": "cell.do')  # a write in progress
    assert read_status(path)["cells"]["done"] == 3
    assert os.listdir(tmp_path) == ["j.ndjson"]


@pytest.mark.parametrize("content,fragment", [
    (None, "journal not found"),
    ("", "no sweep recorded"),
    ('{"ev": "point", "span": "note", "t": 1.0}\n', "no sweep recorded"),
], ids=["missing", "empty", "no-sweep-span"])
def test_read_status_operator_errors_are_one_line(tmp_path, content,
                                                  fragment):
    path = tmp_path / "S.json.journal.ndjson"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_status(str(tmp_path / "S.json"))
    message = str(excinfo.value)
    assert message.startswith(fragment) and "\n" not in message


def test_render_top_shows_bar_and_counts(tmp_path):
    path = str(tmp_path / "j.ndjson")
    eight_cell_journal(path)
    status = read_status(path)
    assert status["cells"] == {"pending": 1, "leased": 2, "done": 3,
                               "failed": 1, "cached": 1, "retries": 0}
    assert status["updated_unix"] == 104.0
    # 4 cells ran (the cached one did not) in 4 journal seconds.
    assert status["rate_cells_per_s"] == 1.0
    text = render_top(status)
    assert "5/8" in text  # done + failed + cached
    assert "[" + "#" * 20 + "x" * 5 + "." * 15 + "]" in text
    assert "leased 2" in text and "pending 1" in text
    assert "cached 1" in text


def test_an_unknown_eta_reads_as_unknown_not_zero(tmp_path):
    """A resumed sweep whose first live cell is still running: 9 cells
    served from the cache, one leased, none finished, so the rate is 0
    and the ETA is unknown."""
    path = str(tmp_path / "j.ndjson")
    journal = Journal(path)
    journal.begin("sweep", t=10.0, spec="repro-sweep", cells=12)
    for i in range(9):
        journal.point("cell.cache_hit", t=10.0 + i / 10, cell=f"c{i}", key="k")
    journal.begin("cell.run", t=11.0, cell="c9", actor="worker/local/7")
    status = read_status(path)
    assert status["state"] == "running"
    assert status["cells"]["cached"] == 9 and status["cells"]["leased"] == 1
    assert status["rate_cells_per_s"] == 0.0
    assert status["eta_s"] is None
    text = render_top(status)
    assert "9/12" in text
    assert "eta ?" in text and "eta 0s" not in text


def test_eta_counts_down_once_a_live_cell_finished(tmp_path):
    path = str(tmp_path / "j.ndjson")
    eight_cell_journal(path)
    status = read_status(path)
    # 3 cells left at 1 cell per journal second.
    assert status["eta_s"] == 3.0
    assert "eta 3s" in render_top(status)


def test_render_prometheus_exposes_cells(tmp_path):
    path = str(tmp_path / "j.ndjson")
    eight_cell_journal(path)
    text = render_prometheus(read_status(path))
    assert 'repro_sweep_cells{state="done"} 3' in text
    assert 'repro_sweep_cells{state="cached"} 1' in text
    assert 'repro_sweep_cells{state="leased"} 2' in text
    assert "repro_sweep_total 8" in text
    assert "repro_sweep_running 1" in text


def test_a_retried_cell_counts_once_and_times_both_attempts(tmp_path):
    journal = Journal(str(tmp_path / "j.ndjson"))
    journal.begin("sweep", t=0.0, spec="s", cells=1)
    journal.point("cell.retry", t=1.0, cell="c", attempt=1, error="x",
                  wall_s=1.0)
    journal.point("cell.done", t=2.5, cell="c", attempt=2, wall_s=1.5)
    journal.close(state="done")
    events = read_journal(journal.path)

    status = fold_status(events)
    assert status["state"] == "done"
    assert status["cells"]["retries"] == 1 and status["cells"]["done"] == 1
    assert fold_timing(events) == [
        {"cell": "c", "attempt": 1, "outcome": "retried", "wall_s": 1.0},
        {"cell": "c", "attempt": 2, "outcome": "done", "wall_s": 1.5},
    ]


def test_a_live_fold_sees_the_cell_in_flight(tmp_path):
    path = str(tmp_path / "live.journal.ndjson")
    obs = SweepObserver(journal=Journal(path))
    spec = SweepSpec("live", (SweepCell(
        "nap", "flaky", {"mode": "sleep", "sleep_s": 1.0, "payload": "p"}),))
    sweep = threading.Thread(target=run_sweep, args=(spec,),
                             kwargs={"workers": 1, "obs": obs})
    sweep.start()
    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if any(e["span"] == "cell.run" for e in read_journal(path)):
                break
            time.sleep(0.01)
        status = read_status(path)
        assert status["state"] == "running"
        assert status["cells"]["leased"] == 1
        assert status["cells"]["pending"] == 0
    finally:
        sweep.join()
    obs.close("done")
    status = read_status(path)
    assert status["state"] == "done"
    assert status["cells"]["done"] == 1 and status["cells"]["leased"] == 0
