"""Unit tests for trace recording and replay."""

import json

import pytest

from repro.machine import Machine
from repro.run import run_workload
from repro.sim.config import SimulationConfig
from repro.workloads.trace import TraceRecorder, TraceReplayWorkload
from repro.workloads.synthetic import ZipfWorkload

CONFIG = SimulationConfig(dram_pages=(128,), pm_pages=(512,))


def record(tmp_path, workload=None):
    path = tmp_path / "trace.txt"
    inner = workload or ZipfWorkload(pages=100, ops=300, seed=4, write_ratio=0.3)
    recorder = TraceRecorder(inner, path)
    result = run_workload(recorder, CONFIG, policy="static")
    return path, result


def test_record_produces_header_and_lines(tmp_path):
    path, result = record(tmp_path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == 1
    assert header["workload"] == "zipf"
    assert len(header["processes"]) == 1
    assert len(lines) - 1 == result.accesses == 300


def test_replay_reproduces_the_run(tmp_path):
    path, original = record(tmp_path)
    replay = TraceReplayWorkload(path)
    replayed = run_workload(replay, CONFIG, policy="static")
    assert replayed.accesses == original.accesses
    assert replayed.operations == original.operations
    # Same accesses on the same config and policy: identical timing.
    assert replayed.elapsed_ns == original.elapsed_ns


def test_replay_on_a_different_policy(tmp_path):
    path, __ = record(tmp_path)
    replayed = run_workload(TraceReplayWorkload(path), CONFIG, policy="multiclock")
    assert replayed.policy == "multiclock"
    assert replayed.accesses == 300


def test_replay_footprint_from_header(tmp_path):
    path, __ = record(tmp_path)
    assert TraceReplayWorkload(path).footprint_pages() == 100


def test_replay_preserves_write_flags(tmp_path):
    path, __ = record(tmp_path)
    replay = TraceReplayWorkload(path)
    machine = Machine(CONFIG, "static")
    replay.setup(machine)
    writes = sum(int(block.write.sum()) for block in replay.blocks())
    assert 0 < writes < 300


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text('{"version": 99, "processes": []}\n')
    with pytest.raises(ValueError, match="version"):
        TraceReplayWorkload(path)


def _replay_lines(tmp_path, *lines):
    """Replay a one-process trace of ``lines`` on a fresh machine."""
    path = tmp_path / "bad.txt"
    path.write_text(
        '{"version": 1, "processes": [{"name": "p", "home_socket": 0, '
        '"regions": [[0, 10, true, false]]}]}\n' + "".join(f"{line}\n" for line in lines)
    )
    replay = TraceReplayWorkload(path)
    replay.setup(Machine(CONFIG, "static"))
    return list(replay.blocks())


def test_malformed_line_reports_location(tmp_path):
    with pytest.raises(ValueError, match=":3"):
        _replay_lines(tmp_path, "0 5 r 1 -", "garbage")


@pytest.mark.parametrize(
    "line",
    [
        "-1 5 r 1 -",  # a process index counted from the end
        "1 5 r 1 -",  # a process the header does not declare
        "0 5 x 1 -",  # neither a read nor a write
        "0 5 r 0 -",  # no lines touched
        "0 5 r -50 -",  # negative lines would run the clock backwards
        "0 5 r 1 q",  # neither a boundary nor none
    ],
)
def test_out_of_domain_field_is_malformed(tmp_path, line):
    with pytest.raises(ValueError, match=r":3: malformed trace line"):
        _replay_lines(tmp_path, "0 5 w 2 o", line)


def test_replay_blocks_follow_the_trace(tmp_path):
    [block] = _replay_lines(tmp_path, "0 5 w 2 o", "0 6 r 1 -")
    assert block.vpage.tolist() == [5, 6]
    assert block.write.tolist() == [True, False]
    assert block.lines.tolist() == [2, 1]
    assert block.op_boundary.tolist() == [True, False]
