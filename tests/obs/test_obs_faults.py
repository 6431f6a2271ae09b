"""End-to-end observability under faults: one commit per retried cell,
the begin-has-end guarantee under SIGINT, and the journal-off
byte-identity contract of SWEEP_report.json."""

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.obs import (
    Journal,
    SweepObserver,
    pair_spans,
    read_journal,
    read_status,
    timeline_records,
)
from repro.sweep import (
    SweepCell,
    SweepInterrupted,
    SweepSpec,
    run_sweep,
)


def sleepy_cells(n, prefix="c", sleep_s=0.05):
    return [
        SweepCell(f"{prefix}{i}", "flaky",
                  {"mode": "sleep", "sleep_s": sleep_s, "payload": f"p{i}"})
        for i in range(n)
    ]


def armed_observer(tmp_path):
    journal = Journal(str(tmp_path / "sweep.journal.ndjson"))
    return SweepObserver(journal=journal), journal.path


def test_one_commit_per_cell_even_with_retries(tmp_path):
    """At-most-once, observed: a cell whose worker crashed and was
    retried has two cell.run spans sharing its correlation id, and
    every cell commits exactly once."""
    cells = sleepy_cells(6)
    cells.insert(2, SweepCell("crasher", "flaky",
                              {"mode": "exit",
                               "marker": str(tmp_path / "crash.marker"),
                               "payload": "recovered"}))
    spec = SweepSpec("once", tuple(cells))
    obs, journal_path = armed_observer(tmp_path)
    result = run_sweep(spec, workers=2, obs=obs)
    obs.close("done")
    assert result.ok

    events = read_journal(journal_path)
    runs = [s for s in pair_spans(events)
            if s.span == "cell.run" and s.cell == "crasher"]
    assert [s.fields["ok"] for s in runs] == [False, True]
    commits = {}
    for event in events:
        if event["ev"] == "point" and event["span"] == "commit":
            commits[event["cell"]] = commits.get(event["cell"], 0) + 1
    assert commits == {cell.id: 1 for cell in spec.cells}

    # The timeline shows the driver and the local pool.
    _records, lanes = timeline_records(events)
    assert lanes == 2


def test_every_begin_has_an_end_even_on_sigint(tmp_path):
    """Property: whatever SIGINT interrupts, a closed journal pairs —
    every begin sid has exactly one end sid (synthetic ends count)."""
    cells = tuple(
        SweepCell(f"s{i}", "flaky",
                  {"mode": "sleep", "sleep_s": 0.4, "payload": f"p{i}"})
        for i in range(4)
    )
    spec = SweepSpec("interruptible", cells)
    obs, journal_path = armed_observer(tmp_path)

    def interrupt_soon():
        time.sleep(0.6)
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=interrupt_soon, daemon=True).start()
    with pytest.raises(SweepInterrupted):
        run_sweep(spec, workers=1, obs=obs)
    obs.close("interrupted")  # what _cmd_sweep does on the way out

    events = read_journal(journal_path)
    begins = [e["sid"] for e in events if e["ev"] == "begin"]
    ends = [e["sid"] for e in events if e["ev"] == "end"]
    assert sorted(begins) == sorted(ends)
    assert len(set(begins)) == len(begins)
    interrupted = [s for s in pair_spans(events) if s.span == "sweep"]
    assert interrupted[0].fields.get("state") == "interrupted"
    assert read_status(journal_path)["state"] == "interrupted"


SWEEP_ARGS = [
    "sweep", "--policies", "static", "--workloads", "uniform",
    "--seeds", "1,2", "--workers", "2", "--no-cache",
    "--dram-pages", "64", "--pm-pages", "256",
    "--ops", "200", "--pages", "64",
]


def test_journal_off_report_is_byte_identical(tmp_path):
    """The whole observability plane must be invisible when off: the
    armed report minus its timing/profile sections re-serialises to the
    exact bytes the journal-off run wrote."""
    from repro.cli import main

    armed = str(tmp_path / "armed.json")
    plain = str(tmp_path / "plain.json")
    assert main(SWEEP_ARGS + ["--out", armed, "--journal"]) == 0
    assert main(SWEEP_ARGS + ["--out", plain]) == 0

    with open(armed, encoding="utf-8") as fh:
        report = json.load(fh)
    timing = report.pop("timing")
    profile = report.pop("profile")
    stripped = json.dumps(report, indent=2, sort_keys=True) + "\n"
    with open(plain, "rb") as fh:
        assert fh.read() == stripped.encode("utf-8")

    # The sections the journal bought: per-attempt timing rows sorted by
    # (cell, attempt), and a profile covering ≥95% of the wall.
    assert [r["cell"] for r in timing] == sorted(r["cell"] for r in timing)
    assert all(r["outcome"] == "done" and r["wall_s"] > 0 for r in timing)
    assert profile["coverage"] >= 0.95
    assert os.path.exists(f"{armed}.journal.ndjson")
    assert not os.path.exists(f"{plain}.journal.ndjson")
    assert sorted(os.listdir(tmp_path)) == ["armed.json",
                                            "armed.json.journal.ndjson",
                                            "plain.json"]


def test_top_and_timeline_cli_round_trip(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path / "S.json")
    assert main(SWEEP_ARGS + ["--out", out, "--journal"]) == 0
    capsys.readouterr()

    assert main(["top", out, "--once"]) == 0
    top = capsys.readouterr().out
    assert "2/2" in top and "done 2" in top

    assert main(["top", out, "--prometheus"]) == 0
    prom = capsys.readouterr().out
    assert 'repro_sweep_cells{state="done"} 2' in prom

    assert main(["timeline", out]) == 0
    line = capsys.readouterr().out
    assert "lane(s)" in line
    trace_path = f"{out}.journal.ndjson.trace.json"
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["traceEvents"]


def test_top_exits_cleanly_when_the_pipe_closes(tmp_path, monkeypatch):
    """`repro top --once | grep -q ...` closes the pipe after the first
    match; the EPIPE must map to a clean exit 0, not a traceback."""
    from repro.cli import main

    journal = Journal(str(tmp_path / "S.json.journal.ndjson"))
    journal.begin("sweep", spec="s", cells=2)
    journal.close(state="done")

    read_end, write_end = os.pipe()
    os.close(read_end)  # every flushed write now raises BrokenPipeError
    with os.fdopen(write_end, "w", buffering=1) as dead_pipe:
        monkeypatch.setattr(sys, "stdout", dead_pipe)
        assert main(["top", str(tmp_path / "S.json"), "--once"]) == 0


def test_top_without_status_file_is_an_operator_error(tmp_path, capsys):
    """No journal beside the report: one line, exit 2."""
    from repro.cli import main

    code = main(["top", str(tmp_path / "nope.json"), "--once"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: journal not found")
    assert err.count("\n") == 1


def test_timeline_without_journal_is_an_operator_error(tmp_path, capsys):
    from repro.cli import main

    code = main(["timeline", str(tmp_path / "nope.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: journal not found")
    assert err.count("\n") == 1
