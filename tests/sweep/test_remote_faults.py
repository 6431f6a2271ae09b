"""Failure paths of the distributed sweep: hosts dying mid-cell,
duplicate results, full-fleet loss, and operator mistakes."""

import os
import sys
import time

import pytest

from repro.obs import SweepObserver
from repro.sweep import (
    SweepCell,
    SweepSpec,
    parse_hosts,
    run_remote_sweep,
    run_sweep,
)
from repro.sweep.pool import _Ledger


def sleepy_cells(n, prefix="c", sleep_s=0.05):
    return [
        SweepCell(f"{prefix}{i}", "flaky",
                  {"mode": "sleep", "sleep_s": sleep_s, "payload": f"p{i}"})
        for i in range(n)
    ]


def test_agent_killed_mid_sweep_heals(tmp_path):
    """SIGKILLing one agent mid-cell must not lose the sweep: the cell is
    re-dispatched (straggler duplicate or host-loss requeue) and the
    merged result stays identical to the sequential run."""
    marker = str(tmp_path / "killed.marker")
    cells = sleepy_cells(8)
    cells.insert(3, SweepCell("killer", "flaky",
                              {"mode": "kill-agent", "marker": marker,
                               "payload": "recovered"}))
    spec = SweepSpec("faulty", tuple(cells))
    sequential = run_sweep(spec, workers=1)
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.5,
                              reconnect_attempts=2)
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    assert [o.cell.id for o in remote.outcomes] == [
        o.cell.id for o in sequential.outcomes
    ]


def test_heartbeat_loss_requeues_and_reconnects(tmp_path):
    """With straggler rescue off, the driver must detect the dead agent
    by heartbeat silence, requeue its lease, and reconnect the host."""
    marker = str(tmp_path / "killed.marker")
    cells = sleepy_cells(6)
    cells.insert(2, SweepCell("killer", "flaky",
                              {"mode": "kill-agent", "marker": marker,
                               "payload": "recovered"}))
    spec = SweepSpec("silent", tuple(cells))
    sequential = run_sweep(spec, workers=1)
    notes = []
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.3,
                              reconnect_attempts=2, straggler_factor=0,
                              progress=notes.append)
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    assert any("lost mid-cell; re-dispatching" in n for n in notes)
    assert sum(h.reconnects for h in remote.host_outcomes) >= 1


def _agent_processes():
    """Pids of live ``repro sweep-agent`` processes: agents and the
    workers they fork (which share the agent's command line)."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if b"sweep-agent" in argv and b"repro" in argv:
            pids.add(int(entry))
    return pids


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="lists processes through /proc")
def test_no_agent_process_outlives_the_sweep(tmp_path):
    """The worker a SIGKILLed agent leaves behind, and the worker of a
    hung cell that timeout_s cancels, are both gone within seconds of
    the sweep returning."""
    before = _agent_processes()
    cells = sleepy_cells(4)
    cells.insert(1, SweepCell("killer", "flaky",
                              {"mode": "kill-agent",
                               "marker": str(tmp_path / "killed.marker"),
                               "payload": "recovered"}))
    cells.insert(3, SweepCell("sleeper", "flaky",
                              {"mode": "hang",
                               "marker": str(tmp_path / "hung.marker"),
                               "payload": "woke"}))
    spec = SweepSpec("leak", tuple(cells))
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.3,
                              reconnect_attempts=2, straggler_factor=0,
                              timeout_s=1.0)
    assert remote.ok
    assert remote.payloads() == run_sweep(spec, workers=1).payloads()
    deadline = time.monotonic() + 5.0
    while _agent_processes() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _agent_processes() - before


def test_all_hosts_dead_degrades_to_local_pool():
    """A kill-agent cell with no marker murders every agent that leases
    it; with reconnects exhausted the sweep must finish on the local
    pool (where kill-agent is inert) instead of aborting."""
    cells = sleepy_cells(4, prefix="d", sleep_s=0.02)
    cells.insert(0, SweepCell("assassin", "flaky",
                              {"mode": "kill-agent", "payload": "recovered"}))
    spec = SweepSpec("doomed", tuple(cells))
    sequential = run_sweep(spec, workers=1)
    notes = []
    remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.3,
                              reconnect_attempts=0, straggler_factor=0,
                              progress=notes.append)
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    assert all(h.state == "dead" for h in remote.host_outcomes)
    assert any("degrading to the local pool" in n for n in notes)


def _ledger(spec, notes, cache_dir=None):
    return _Ledger(spec, max_attempts=3, manifest_path=None, resume=False,
                   cache_dir=cache_dir,
                   obs=SweepObserver(progress=notes.append))


def test_duplicate_result_discarded_at_most_once():
    """Unit-level at-most-once: the first result commits, the straggler
    sibling's late result is discarded and named against its host."""
    cell = SweepCell("dup", "flaky", {"mode": "sleep", "payload": "x"})
    notes = []
    ledger = _ledger(SweepSpec("dups", (cell,)), notes)
    assert ledger.pop() == (cell, 1)
    assert ledger.settle(cell, 1, True, "committed",
                         host="loopback#0") == "done"
    assert ledger.settle(cell, 1, True, "too late",
                         host="loopback#1") == "duplicate"
    assert ledger.outcomes["dup"].payload == "committed"
    assert ledger.pop() is None
    assert ledger.obs.extra["duplicates"] == 1
    assert any("late/duplicate result from loopback#1 discarded" in n
               for n in notes)


def test_redispatch_consults_result_cache(tmp_path):
    """A cell requeued after dispatch began is served from the result
    cache when a fingerprint-identical cell has completed in the
    meantime, instead of being re-executed on a host."""
    params = {"mode": "ok", "payload": "shared"}
    first = SweepCell("first", "flaky", params)
    second = SweepCell("second", "flaky", params)  # same fingerprint
    notes = []
    ledger = _ledger(SweepSpec("cache-consult", (first, second)), notes,
                     cache_dir=str(tmp_path / "cache"))
    assert ledger.pop() == (first, 1)  # nothing cached yet: both run
    assert ledger.pop() == (second, 1)
    # "first" commits (and is cached) while "second" sits requeued after
    # its host was lost.
    assert ledger.settle(first, 1, True, {"value": 41}) == "done"
    ledger.requeue(second, 1)
    assert ledger.pop() is None  # served, not handed to a host
    assert ledger.cache_hits == 1
    outcome = ledger.outcomes["second"]
    assert outcome.ok and outcome.cached
    assert outcome.payload == {"value": 41}
    assert any("served from result cache" in n for n in notes)


def test_unreachable_ssh_host_dies_cleanly():
    """A host that never says hello is dead after its connect timeout;
    the surviving loopback host completes the sweep."""
    spec = SweepSpec("mixed", tuple(sleepy_cells(3, sleep_s=0.02)))
    sequential = run_sweep(spec, workers=1)
    remote = run_remote_sweep(
        spec, "nosuchhost.invalid,loopback", heartbeat_s=0.5,
        connect_timeout_s=2.0, reconnect_attempts=0,
    )
    assert remote.ok
    assert remote.payloads() == sequential.payloads()
    by_name = {h.host: h for h in remote.host_outcomes}
    assert by_name["nosuchhost.invalid"].state == "dead"
    assert by_name["loopback#0"].done == 3


@pytest.mark.parametrize("hosts,fragment", [
    ("", "empty"),
    ("loopback,,loopback", "empty entry"),
    ("loopback:two", "not an integer"),
    ("loopback:0", ">= 1"),
    ("host; rm -rf /", "ssh destination"),
])
def test_bad_hosts_are_one_line_value_errors(hosts, fragment):
    with pytest.raises(ValueError) as excinfo:
        parse_hosts(hosts)
    message = str(excinfo.value)
    assert fragment in message
    assert "\n" not in message


def test_bad_tuning_flags_are_one_line_value_errors():
    spec = SweepSpec("flags", tuple(sleepy_cells(1)))
    with pytest.raises(ValueError, match="heartbeat"):
        run_remote_sweep(spec, "loopback", heartbeat_s=-1.0)
    with pytest.raises(ValueError, match="straggler"):
        run_remote_sweep(spec, "loopback", straggler_factor=0.5)
