"""The live status sidecar: atomic rewrites, throttling, the reader's
operator errors, and both render styles."""

import json
import os

import pytest

from repro.obs import (
    MIN_REWRITE_INTERVAL_S,
    StatusBoard,
    read_status,
    render_prometheus,
    render_top,
)


def test_board_writes_a_complete_snapshot_on_construction(tmp_path):
    path = str(tmp_path / "s.status.json")
    StatusBoard(path, total=10, spec="repro-sweep", trace="abc")
    status = read_status(path)
    assert status["state"] == "running"
    assert status["total"] == 10
    assert status["trace"] == "abc"
    assert status["cells"]["pending"] == 10


def test_updates_throttle_but_transitions_force(tmp_path):
    path = str(tmp_path / "s.status.json")
    board = StatusBoard(path, total=4, spec="x")
    before = os.stat(path).st_mtime_ns
    # Immediately after construction the rewrite floor applies.
    board.update(counts={"done": 1})
    assert os.stat(path).st_mtime_ns == before
    assert MIN_REWRITE_INTERVAL_S > 0
    board.update(counts={"done": 2}, force=True)
    assert read_status(path)["cells"]["done"] == 2


def test_finish_is_terminal_and_idempotent(tmp_path):
    path = str(tmp_path / "s.status.json")
    board = StatusBoard(path, total=2, spec="x")
    board.finish("interrupted")
    board.finish("done")  # too late: first terminal state wins
    status = read_status(path)
    assert status["state"] == "interrupted"
    assert status["cells"]["pending"] == 0 and status["cells"]["leased"] == 0


def test_no_tmp_litter_and_always_valid_json(tmp_path):
    path = str(tmp_path / "s.status.json")
    board = StatusBoard(path, total=100, spec="x")
    for i in range(50):
        board.update(counts={"done": i}, force=True)
        json.loads(open(path, encoding="utf-8").read())  # never torn
    leftovers = [p for p in os.listdir(tmp_path) if p != "s.status.json"]
    assert leftovers == []


@pytest.mark.parametrize("prepare,fragment", [
    (lambda p: None, "status file not found"),
    (lambda p: p.write_text("{torn", encoding="utf-8"), "unreadable"),
    (lambda p: p.write_text("[1, 2]", encoding="utf-8"),
     "not a sweep status file"),
])
def test_read_status_operator_errors_are_one_line(tmp_path, prepare, fragment):
    path = tmp_path / "s.status.json"
    prepare(path)
    with pytest.raises(ValueError) as excinfo:
        read_status(str(path))
    message = str(excinfo.value)
    assert fragment in message and "\n" not in message


def test_render_top_shows_bar_and_counts(tmp_path):
    path = str(tmp_path / "s.status.json")
    board = StatusBoard(path, total=8, spec="repro-sweep")
    board.update(pending=2, leased=2, counts={"done": 3, "failed": 1},
                 force=True)
    text = render_top(read_status(path))
    assert "4/8" in text
    assert "#" in text and "x" in text  # done and failed bar segments
    assert "leased 2" in text and "pending 2" in text


def test_render_prometheus_exposes_cells(tmp_path):
    path = str(tmp_path / "s.status.json")
    board = StatusBoard(path, total=8, spec="repro-sweep")
    board.update(counts={"done": 3}, force=True)
    text = render_prometheus(read_status(path))
    assert 'repro_sweep_cells{state="done"} 3' in text
    assert "repro_sweep_total 8" in text
