"""Distributed sweep fan-out: host agents, leases, heartbeats, re-dispatch.

``run_remote_sweep`` shards a declarative cell grid across a set of
**host agents** and treats every host as unreliable.  Each agent is a
``repro sweep-agent`` process — reached over a transport (a local
subprocess for the loopback kind, an ssh subprocess for remote hosts) —
that runs its cells on the sweep's :class:`~repro.sweep.pool._WorkerPool`
and speaks a newline-delimited JSON protocol of
:mod:`~repro.sweep.wire` envelopes:

========== =========== ====================================================
direction  kind        body
========== =========== ====================================================
agent →    ``hello``   ``{host, pid, workers}`` — first line after start
driver →   ``spec``    the whole grid (fingerprinted) + ``heartbeat_s``
agent →    ``spec-ack``  ``{fingerprint}`` — must match the driver's
driver →   ``lease``   ``{lease, cell}`` — run one cell
agent →    ``heartbeat`` ``{busy: [lease ids], done}`` — every interval
agent →    ``result``  ``{lease, cell, ok, payload | error}``
agent →    ``journal`` ``{events}`` — buffered spans, journal mode only
driver →   ``cancel``  ``{lease}`` — kill that lease's worker
driver →   ``shutdown``  drain and exit
========== =========== ====================================================

Both ends are threadless: the driver waits on every agent's stdout, and
the agent on its stdin plus its workers' pipes, in one
``connection.wait`` each, framing lines with :class:`_Lines`.  No
reader thread can be alive when the driver forks local workers.

Fault model (driver side):

* A host that misses three heartbeat intervals, EOFs its transport, or
  sends an undecodable line is **lost**: its leased cells are requeued
  (no attempt charged — the host failed, not the cell) and the host is
  reconnected with exponential backoff plus deterministic jitter, up to
  ``reconnect_attempts`` times, after which it is **dead**.
* A leased cell past ``timeout_s`` is cancelled and charged an attempt,
  exactly like the local pool's timeout.
* A leased cell running longer than ``straggler_factor`` × the median
  committed cell time is *also* dispatched to a second host; the first
  result commits, the sibling lease is cancelled, and a late duplicate
  is discarded deterministically (results commit **at most once** per
  cell id).
* If every host is dead, the sweep **degrades**: the remaining cells
  finish on the local pool rather than aborting, and the per-host
  outcomes record what happened.

Every agent runs in its own session, so closing a transport signals the
agent's whole process group — SIGTERM (the agent exits cleanly and shuts
its pool down), a grace window, then SIGKILL — and no worker outlives
its agent, not even one whose agent was SIGKILLed.

Merged results stay byte-identical to a sequential sweep: every lease
settles through the same :class:`~repro.sweep.pool._Ledger` the local
pool uses, outcomes are keyed by cell id and reported in spec order,
and payloads round-trip through JSON on the agent exactly as they do in
a local worker.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from statistics import median
from typing import TYPE_CHECKING, Any, Callable

from repro.sweep import pool as _pool
from repro.sweep.pool import (
    SweepResult,
    _Ledger,
    _run_fields,
    _run_grid,
    _run_local,
    _SignalGuard,
    _WorkerPool,
)
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.wire import (
    WireError,
    decode_envelope,
    decode_spec,
    encode_envelope,
    encode_spec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports sweep)
    from repro.obs import SweepObserver

__all__ = [
    "HostSpec",
    "HostOutcome",
    "parse_hosts",
    "run_remote_sweep",
    "agent_main",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_STRAGGLER_FACTOR",
]

DEFAULT_HEARTBEAT_S = 5.0
DEFAULT_STRAGGLER_FACTOR = 4.0
#: Heartbeat intervals a host may miss before it is declared lost.
_MISSED_HEARTBEATS = 3
_RECONNECT_BASE_S = 0.25
_RECONNECT_CAP_S = 5.0


# --------------------------------------------------------------------------
# Host descriptions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One entry of ``--hosts``: where an agent runs and how wide it is."""

    name: str  # unique display name (``loopback#1``, ``user@h1``)
    kind: str  # "loopback" | "ssh"
    target: str  # ssh destination; "" for loopback
    workers: int  # agent-side pool width


def parse_hosts(hosts: "str | list[str] | tuple[HostSpec, ...]",
                *, default_workers: int = 1) -> tuple[HostSpec, ...]:
    """Parse a ``--hosts`` value into :class:`HostSpec` entries.

    Each comma-separated entry is ``loopback`` (an agent subprocess on
    this machine — the CI/test transport) or ``[user@]host`` (an agent
    over ssh), optionally suffixed ``:N`` for the agent's worker count.
    Garbage entries — empty strings, a non-integer worker suffix, or
    shell metacharacters in an ssh target — are operator errors reported
    as one-line ``ValueError``\\ s.
    """
    if isinstance(hosts, tuple) and all(isinstance(h, HostSpec) for h in hosts):
        return hosts
    entries = (
        [e.strip() for e in hosts.split(",")] if isinstance(hosts, str)
        else [str(e).strip() for e in hosts]
    )
    if not entries or all(not e for e in entries):
        raise ValueError("--hosts is empty; give loopback or [user@]host entries")
    specs: list[HostSpec] = []
    counts: dict[str, int] = {}
    for entry in entries:
        if not entry:
            raise ValueError(
                f"--hosts has an empty entry in {','.join(entries)!r}"
            )
        target, _, suffix = entry.partition(":")
        workers = default_workers
        if suffix:
            try:
                workers = int(suffix)
            except ValueError:
                raise ValueError(
                    f"bad --hosts entry {entry!r}: worker suffix {suffix!r} "
                    f"is not an integer"
                ) from None
            if workers < 1:
                raise ValueError(
                    f"bad --hosts entry {entry!r}: worker count must be >= 1"
                )
        if target == "loopback":
            kind = "loopback"
        else:
            kind = "ssh"
            if not target or any(c in target for c in " \t;|&$`'\"(){}<>\\"):
                raise ValueError(
                    f"bad --hosts entry {entry!r}: {target!r} is not a "
                    f"plausible ssh destination"
                )
        n = counts.get(target, 0)
        counts[target] = n + 1
        name = target if kind == "ssh" and n == 0 else f"{target}#{n}"
        specs.append(HostSpec(name=name, kind=kind, target=target, workers=workers))
    return tuple(specs)


@dataclass
class HostOutcome:
    """What one host contributed to (and suffered during) a sweep."""

    host: str
    state: str  # "ok" | "dead" | "unused"
    done: int = 0
    failed: int = 0
    reconnects: int = 0
    duplicates_discarded: int = 0
    error: str = ""
    #: Heartbeat round-trip health, for the ``<out>.hosts.json`` sidecar:
    #: how many beats arrived, the widest observed gap between two, and
    #: how stale the last one was when the sweep finished (None if the
    #: host never beat at all).
    heartbeats: int = 0
    max_heartbeat_gap_s: float = 0.0
    last_heartbeat_age_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "state": self.state,
            "done": self.done,
            "failed": self.failed,
            "reconnects": self.reconnects,
            "duplicates_discarded": self.duplicates_discarded,
            "error": self.error,
            "heartbeats": self.heartbeats,
            "max_heartbeat_gap_s": self.max_heartbeat_gap_s,
            "last_heartbeat_age_s": self.last_heartbeat_age_s,
        }


# --------------------------------------------------------------------------
# Transports: how the driver reaches an agent
# --------------------------------------------------------------------------


class _Lines:
    """Non-blocking line framing over a raw fd.

    Lets each end of the protocol multiplex its inputs in ONE
    ``connection.wait`` instead of a reader thread.  On the agent, a
    thread blocked in ``sys.stdin.readline()`` would hold the buffered
    reader's lock across the pool's ``fork()``; the forked worker's
    multiprocessing bootstrap then closes ``sys.stdin`` and deadlocks on
    that never-to-be-released lock.  On the driver, a reader thread
    could still be alive when the all-hosts-dead fallback forks local
    workers.
    """

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buffer = b""
        self.eof = False
        os.set_blocking(fd, False)

    def drain(self) -> list[str | None]:
        """Complete lines available now; ``None`` marks EOF."""
        lines: list[str | None] = []
        while not self.eof:
            try:
                chunk = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                break
            except OSError:
                chunk = b""
            if not chunk:
                self.eof = True
                break
            self.buffer += chunk
        while b"\n" in self.buffer:
            raw, self.buffer = self.buffer.split(b"\n", 1)
            lines.append(raw.decode("utf-8", errors="replace"))
        if self.eof:
            lines.append(None)
        return lines


class _AgentTransport:
    """A live agent subprocess with line-oriented stdin/stdout.

    The loopback kind starts ``repro sweep-agent`` on this machine with
    the driver's interpreter and PYTHONPATH — the in-machine stand-in
    used by tests and CI.  The ssh kind runs the same command on a
    remote host through ``ssh -o BatchMode=yes`` (key-based auth only;
    an agent must never hang on a password prompt).
    """

    def __init__(self, host: HostSpec) -> None:
        if host.kind == "loopback":
            repro_root = os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))
            )
            src_dir = os.path.dirname(repro_root)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_dir, env.get("PYTHONPATH")) if p
            )
            argv = [
                sys.executable, "-m", "repro", "sweep-agent",
                "--workers", str(host.workers),
            ]
        else:
            argv = [
                "ssh", "-o", "BatchMode=yes", "-o", "ConnectTimeout=10",
                host.target,
                f"python3 -m repro sweep-agent --workers {host.workers}",
            ]
            env = None
        # Agent chatter (tracebacks, ssh banners) is discarded; stdout is
        # the protocol channel and must stay clean.  A new session makes
        # the agent a process-group leader, so close() reaches every
        # worker it forked.
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        self.lines = _Lines(self.proc.stdout.fileno())

    def send_line(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def close(self, grace_s: float = 0.5) -> None:
        """Stop the agent and everything it forked, as ``_kill`` stops a
        worker: SIGTERM to the process group, a grace window, then
        SIGKILL.  The group outlives a SIGKILLed agent for as long as
        one of its workers does, so orphans are reached too."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        group = self.proc.pid
        try:
            os.killpg(group, signal.SIGTERM)
            deadline = time.monotonic() + grace_s
            while time.monotonic() < deadline:
                self.proc.poll()  # reap the agent: a zombie keeps the group
                os.killpg(group, 0)  # raises once the group is empty
                time.sleep(0.01)
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(5.0)
        except subprocess.TimeoutExpired:
            pass


# --------------------------------------------------------------------------
# Driver-side scheduler
# --------------------------------------------------------------------------


@dataclass
class _Lease:
    id: str
    cell: SweepCell
    attempt: int
    host: "_Host"
    started: float
    sid: str | None = None  # open lease span in the journal


@dataclass
class _Host:
    spec: HostSpec
    state: str = "connecting"  # connecting | ready | lost | dead
    transport: _AgentTransport | None = None
    capacity: int = 1
    last_seen: float = 0.0
    last_beat: float = 0.0  # monotonic time of the last heartbeat *kind*
    connect_deadline: float = 0.0
    backoff_until: float = 0.0
    reconnects_used: int = 0
    leases: dict[str, _Lease] = field(default_factory=dict)
    connect_sid: str | None = None  # open ssh.connect span
    reconnect_sid: str | None = None  # open reconnect (backoff) span
    outcome: HostOutcome = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.outcome = HostOutcome(host=self.spec.name, state="unused")


def _jitter(host: str, attempt: int) -> float:
    """Deterministic jitter in [0.75, 1.25): reconnects across a fleet
    spread out, and a re-run spreads them out the same way."""
    digest = hashlib.sha256(f"{host}:{attempt}".encode("utf-8")).digest()
    return 0.75 + (digest[0] / 255.0) * 0.5


class _RemoteScheduler:
    """Leases a ledger's cells across unreliable hosts; see the module
    docstring.  Every attempt settles through the ledger."""

    def __init__(
        self,
        spec: SweepSpec,
        hosts: tuple[HostSpec, ...],
        *,
        timeout_s: float | None,
        heartbeat_s: float,
        straggler_factor: float | None,
        connect_timeout_s: float,
        reconnect_attempts: int,
    ) -> None:
        self.spec = spec
        self.timeout_s = timeout_s
        self.heartbeat_s = heartbeat_s
        self.straggler_factor = straggler_factor
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.hosts = [_Host(spec=h) for h in hosts]
        self.active: dict[str, _Lease] = {}  # lease id -> lease
        self.durations: list[float] = []  # committed cell wall times
        self.spawned_agents = 0
        self._lease_seq = 0

    # -- host lifecycle ----------------------------------------------------

    def _connect(self, host: _Host) -> None:
        host.connect_sid = self.obs.begin(
            "ssh.connect", host=host.spec.name, kind=host.spec.kind,
            attempt=host.reconnects_used,
        )
        try:
            host.transport = _AgentTransport(host.spec)
        except OSError as exc:  # ssh/python binary missing, fork failure
            host.transport = None
            self._lose_host(host, f"cannot start agent: {exc}")
            return
        self.spawned_agents += 1
        host.state = "connecting"
        host.last_seen = time.monotonic()
        host.connect_deadline = host.last_seen + self.connect_timeout_s

    def _lose_host(self, host: _Host, reason: str) -> None:
        """Requeue the host's leases and schedule a reconnect (or declare
        it dead once reconnects are exhausted)."""
        if host.state == "dead":
            return
        self.obs.end(host.connect_sid, ok=False, reason=reason)
        host.connect_sid = None
        if host.transport is not None:
            host.transport.close()
            host.transport = None
        for lease in list(host.leases.values()):
            host.leases.pop(lease.id, None)
            self.active.pop(lease.id, None)
            self.obs.end(lease.sid, outcome="host-lost")
            lease.sid = None
            if lease.cell.id in self.ledger.outcomes or self._has_sibling(lease):
                continue
            # The host failed, not the cell: no attempt is charged.
            self.ledger.requeue(lease.cell, lease.attempt)
            self.obs.emit("cell.redispatch", cell=lease.cell.id,
                          host=host.spec.name)
        if host.reconnects_used >= self.reconnect_attempts:
            self.obs.end(host.reconnect_sid, ok=False, reason=reason)
            host.reconnect_sid = None
            host.state = "dead"
            host.outcome.state = "dead"
            host.outcome.error = reason
            self.obs.emit("host.dead", host=host.spec.name, reason=reason)
            return
        self.obs.end(host.reconnect_sid, ok=False, reason=reason)
        host.reconnects_used += 1
        host.outcome.reconnects += 1
        delay = min(
            _RECONNECT_CAP_S,
            _RECONNECT_BASE_S * (2 ** (host.reconnects_used - 1)),
        ) * _jitter(host.spec.name, host.reconnects_used)
        host.state = "lost"
        host.backoff_until = time.monotonic() + delay
        self.obs.emit("host.lost", host=host.spec.name, reason=reason,
                      attempt=host.reconnects_used,
                      limit=self.reconnect_attempts, delay_s=delay)
        host.reconnect_sid = self.obs.begin(
            "reconnect", host=host.spec.name,
            attempt=host.reconnects_used, delay_s=round(delay, 6),
        )

    def _has_sibling(self, lease: _Lease) -> bool:
        return any(
            other.cell.id == lease.cell.id and other.id != lease.id
            for other in self.active.values()
        )

    # -- protocol handling -------------------------------------------------

    def _read(self, timeout: float) -> None:
        """Wait up to ``timeout`` for agent output; handle every line."""
        readers = {h.transport.lines.fd: h for h in self.hosts
                   if h.transport is not None}
        for fd in connection.wait(list(readers), timeout=timeout):
            host = readers[fd]
            transport = host.transport
            for line in transport.lines.drain():
                if host.transport is not transport:
                    break  # lost mid-batch: the rest died with the transport
                if line is None:
                    self._lose_host(host, "transport closed (EOF)")
                else:
                    self._on_line(host, line)

    def _on_line(self, host: _Host, line: str) -> None:
        host.last_seen = time.monotonic()
        try:
            kind, body = decode_envelope(line)
        except WireError as exc:
            self._lose_host(host, f"protocol error: {exc}")
            return
        if kind == "hello":
            workers = body.get("workers")
            host.capacity = workers if isinstance(workers, int) and workers > 0 else 1
            assert host.transport is not None
            try:
                host.transport.send_line(self._spec_line)
            except OSError as exc:
                self._lose_host(host, f"send failed: {exc}")
        elif kind == "spec-ack":
            if body.get("fingerprint") != self.spec.fingerprint():
                self._lose_host(host, "spec fingerprint mismatch on ack")
                return
            host.state = "ready"
            if host.outcome.state == "unused":
                host.outcome.state = "ok"
            self.obs.end(host.connect_sid, ok=True, workers=host.capacity)
            host.connect_sid = None
            self.obs.end(host.reconnect_sid, ok=True)
            host.reconnect_sid = None
            self.obs.emit("host.ready", host=host.spec.name,
                          workers=host.capacity)
        elif kind == "heartbeat":
            now = time.monotonic()
            gap = now - host.last_beat if host.last_beat else 0.0
            host.last_beat = now
            host.outcome.heartbeats += 1
            if gap > host.outcome.max_heartbeat_gap_s:
                host.outcome.max_heartbeat_gap_s = round(gap, 3)
            busy = body.get("busy")
            self.obs.point(
                "heartbeat", host=host.spec.name, gap_s=round(gap, 6),
                busy=len(busy) if isinstance(busy, list) else 0,
                done=body.get("done", 0),
            )
        elif kind == "result":
            self._on_result(host, body)
        elif kind == "journal":
            events = body.get("events")
            if isinstance(events, list):
                self.obs.record_remote(host.spec.name, events)
        # unknown kinds are ignored: forward-compatible within a version

    def _on_result(self, host: _Host, body: dict[str, Any]) -> None:
        lease_id = str(body.get("lease"))
        lease = self.active.pop(lease_id, None)
        host.leases.pop(lease_id, None)
        if lease is None:  # a cancelled or timed-out lease answering late
            host.outcome.duplicates_discarded += 1
            self.obs.emit("cell.duplicate", cell=str(body.get("cell")),
                          host=host.spec.name)
            return
        # First result wins: cancel any straggler sibling outright.
        for other in [o for o in self.active.values()
                      if o.cell.id == lease.cell.id]:
            self._cancel(other)
        wall = time.monotonic() - lease.started
        ok = bool(body.get("ok"))
        self.obs.end(lease.sid, outcome="result", ok=ok)
        lease.sid = None
        if self._settle(lease, ok, body.get("payload"),
                        str(body.get("error", "agent reported failure")),
                        wall) != "duplicate":
            self.durations.append(wall)

    def _settle(self, lease: _Lease, ok: bool, payload: Any, error: str,
                wall_s: float) -> str:
        """Settle one lease's attempt in the ledger; charge its host."""
        outcome = lease.host.outcome
        state = self.ledger.settle(lease.cell, lease.attempt, ok, payload,
                                   error, wall_s=wall_s,
                                   host=lease.host.spec.name)
        if state == "done":
            outcome.done += 1
        elif state == "failed":
            outcome.failed += 1
        elif state == "duplicate":
            outcome.duplicates_discarded += 1
        return state

    def _cancel(self, lease: _Lease) -> None:
        self.active.pop(lease.id, None)
        lease.host.leases.pop(lease.id, None)
        self.obs.end(lease.sid, outcome="cancelled")
        lease.sid = None
        if lease.host.transport is not None and lease.host.state == "ready":
            try:
                lease.host.transport.send_line(
                    encode_envelope("cancel", {"lease": lease.id})
                )
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self) -> None:
        for host in self.hosts:
            while (host.state == "ready" and len(host.leases) < host.capacity
                   and (popped := self.ledger.pop()) is not None):
                self._lease_to(host, *popped)

    def _lease_to(self, host: _Host, cell: SweepCell, attempt: int) -> None:
        self._lease_seq += 1
        lease = _Lease(
            id=f"L{self._lease_seq}", cell=cell, attempt=attempt,
            host=host, started=time.monotonic(),
        )
        assert host.transport is not None
        dispatch_sid = self.obs.begin("dispatch", host=host.spec.name,
                                      cell=cell.id, lease=lease.id)
        try:
            host.transport.send_line(
                encode_envelope("lease", {
                    "lease": lease.id, "cell": cell.id, "attempt": attempt,
                })
            )
        except OSError as exc:
            self.obs.end(dispatch_sid, ok=False)
            self.ledger.requeue(cell, attempt)
            self._lose_host(host, f"send failed: {exc}")
            return
        self.obs.end(dispatch_sid, ok=True)
        lease.sid = self.obs.begin("lease", host=host.spec.name,
                                   cell=cell.id, lease=lease.id,
                                   attempt=attempt)
        host.leases[lease.id] = lease
        self.active[lease.id] = lease

    def _redispatch_straggler(self, lease: _Lease, now: float) -> None:
        for host in self.hosts:
            if (host is lease.host or host.state != "ready"
                    or len(host.leases) >= host.capacity):
                continue
            self.obs.emit("cell.straggler", cell=lease.cell.id,
                          host=lease.host.spec.name,
                          elapsed_s=now - lease.started, to=host.spec.name)
            self._lease_to(host, lease.cell, lease.attempt)
            return

    # -- deadline supervision ----------------------------------------------

    def _check_deadlines(self, now: float) -> None:
        suspect_after = self.heartbeat_s * _MISSED_HEARTBEATS
        for host in list(self.hosts):
            if host.state == "connecting" and now >= host.connect_deadline:
                self._lose_host(host, "no hello before the connect timeout")
            elif (host.state in ("ready", "connecting")
                    and now - host.last_seen > suspect_after):
                self._lose_host(
                    host,
                    f"heartbeat silent for {now - host.last_seen:.1f}s "
                    f"(> {suspect_after:.1f}s)",
                )
            elif host.state == "lost" and now >= host.backoff_until:
                self._connect(host)
        if self.timeout_s is not None:
            for lease in list(self.active.values()):
                if now - lease.started < self.timeout_s:
                    continue
                self._cancel(lease)
                if (self._has_sibling(lease)
                        or lease.cell.id in self.ledger.outcomes):
                    continue
                self._settle(
                    lease, False, None,
                    f"timeout: attempt {lease.attempt} cancelled after "
                    f"{now - lease.started:.2f}s wall (limit {self.timeout_s}s)",
                    now - lease.started,
                )
        if self.straggler_factor and len(self.durations) >= 3:
            threshold = self.straggler_factor * median(self.durations)
            for lease in list(self.active.values()):
                if (now - lease.started > threshold
                        and not self._has_sibling(lease)):
                    self._redispatch_straggler(lease, now)

    def _next_wake(self, now: float) -> float:
        """Seconds to wait for agent output before a deadline could fire."""
        horizon = now + self.heartbeat_s
        for host in self.hosts:
            if host.state == "connecting":
                horizon = min(horizon, host.connect_deadline)
            elif host.state in ("ready",):
                horizon = min(
                    horizon,
                    host.last_seen + self.heartbeat_s * _MISSED_HEARTBEATS,
                )
            elif host.state == "lost":
                horizon = min(horizon, host.backoff_until)
        if self.timeout_s is not None:
            for lease in self.active.values():
                horizon = min(horizon, lease.started + self.timeout_s)
        return max(0.05, horizon - now)

    # -- main loop ---------------------------------------------------------

    def run(self, ledger: _Ledger, guard: _SignalGuard) -> int:
        """Run the ledger's pending cells until every cell settles or
        every host is dead; returns the number of agents started."""
        self.ledger = ledger
        self.obs = ledger.obs
        # With a journal armed, the spec envelope asks every agent to
        # buffer its own spans and ship them back as `journal` lines;
        # journal-off sweeps send exactly the pre-observability bytes.
        extras: dict[str, Any] = {"heartbeat_s": self.heartbeat_s}
        if self.obs.journal is not None:
            extras["journal"] = True
            extras["trace"] = self.obs.trace_id
        self._spec_line = encode_spec(self.spec, **extras)
        for host in self.hosts:
            self._connect(host)
        try:
            while ledger.unsettled():
                if guard.stop:
                    for lease in self.active.values():
                        self.obs.end(lease.sid, outcome="interrupted")
                    ledger.interrupt((lease.cell, lease.attempt)
                                     for lease in self.active.values())
                if all(h.state == "dead" for h in self.hosts):
                    break  # the caller degrades to the local pool
                self._dispatch()
                self._read(self._next_wake(time.monotonic()))
                self._check_deadlines(time.monotonic())
                self.obs.status_tick(pending=len(ledger.pending),
                                     leased=len(self.active),
                                     hosts=self._host_status())
        finally:
            for host in self.hosts:
                if host.transport is None:
                    continue
                try:
                    host.transport.send_line(encode_envelope("shutdown", {}))
                except OSError:
                    pass
                host.transport.close()
                host.transport = None
        return self.spawned_agents

    def _host_status(self) -> dict[str, dict[str, Any]]:
        """Live per-host rows for the status sidecar (`repro top`)."""
        now = time.monotonic()
        return {
            h.spec.name: {
                "state": h.state,
                "busy": len(h.leases),
                "done": h.outcome.done,
                "failed": h.outcome.failed,
                "reconnects": h.outcome.reconnects,
                "heartbeat_age_s": (
                    round(now - h.last_beat, 3) if h.last_beat else None
                ),
                "workers": h.capacity,
            }
            for h in self.hosts
        }

    def host_outcomes(self) -> tuple[HostOutcome, ...]:
        now = time.monotonic()
        for h in self.hosts:
            if h.last_beat:
                h.outcome.last_heartbeat_age_s = round(now - h.last_beat, 3)
        return tuple(h.outcome for h in self.hosts)


def run_remote_sweep(
    spec: SweepSpec,
    hosts: "str | list[str] | tuple[HostSpec, ...]",
    *,
    timeout_s: float | None = None,
    max_attempts: int = _pool.DEFAULT_MAX_ATTEMPTS,
    manifest_path: str | None = None,
    resume: bool = False,
    cache_dir: str | None = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    straggler_factor: float | None = DEFAULT_STRAGGLER_FACTOR,
    connect_timeout_s: float = 10.0,
    reconnect_attempts: int = 1,
    local_workers: int = 1,
    workers_per_host: int = 1,
    progress: Callable[[str], None] | None = None,
    obs: "SweepObserver | None" = None,
) -> SweepResult:
    """Execute ``spec`` across remote host agents; always completes.

    Same contract as :func:`~repro.sweep.pool.run_sweep` — per-cell
    retry up to ``max_attempts``, resumable manifest, result cache,
    deterministic merge — plus the fault model described in the module
    docstring.  With every host dead, the remaining cells run on a local
    pool of ``local_workers``; the sweep never aborts because the fleet
    did.  Bad ``heartbeat_s``/``straggler_factor`` values are one-line
    ``ValueError``\\ s naming the CLI flag, raised before any agent starts.
    """
    host_specs = parse_hosts(hosts, default_workers=workers_per_host)
    if not (math.isfinite(heartbeat_s) and heartbeat_s > 0.0):
        raise ValueError(
            f"--heartbeat-s must be a positive finite number, got {heartbeat_s!r}"
        )
    if not straggler_factor:  # 0 / None both mean "never re-dispatch"
        straggler_factor = None
    elif not math.isfinite(straggler_factor) or straggler_factor < 1.0:
        raise ValueError(
            f"--straggler-factor must be >= 1 (or 0 to disable), "
            f"got {straggler_factor!r}"
        )
    # Fail fast on a non-portable grid — before any agent is started.
    encode_spec(spec)
    scheduler = _RemoteScheduler(
        spec, host_specs, timeout_s=timeout_s, heartbeat_s=heartbeat_s,
        straggler_factor=straggler_factor,
        connect_timeout_s=connect_timeout_s,
        reconnect_attempts=reconnect_attempts,
    )

    def drive(ledger: _Ledger, guard: _SignalGuard) -> int:
        spawned = scheduler.run(ledger, guard)
        if ledger.unsettled():
            # Graceful degradation: every host is gone, the grid is not.
            # Anything still leased was already requeued by _lose_host,
            # so the ledger's pending queue is exactly the unfinished set.
            ledger.obs.emit("sweep.degraded", hosts=len(host_specs),
                            cells=ledger.unsettled())
            spawned += _run_local(spec, ledger, guard, workers=local_workers,
                                  timeout_s=timeout_s)
        return spawned

    return _run_grid(
        spec, drive,
        workers=sum(h.workers for h in host_specs),
        span={"hosts": len(host_specs)}, hosts=scheduler.host_outcomes,
        max_attempts=max_attempts, manifest_path=manifest_path,
        resume=resume, cache_dir=cache_dir, progress=progress, obs=obs,
    )


# --------------------------------------------------------------------------
# Agent side
# --------------------------------------------------------------------------


def agent_main(workers: int = 1) -> int:
    """``repro sweep-agent``: serve one driver over stdin/stdout.

    Speaks the envelope protocol described in the module docstring and
    runs cells on a :class:`~repro.sweep.pool._WorkerPool`; the driver
    decides what to lease next, the agent only executes.  Exits 0 on a
    clean ``shutdown``, on driver EOF (an orphaned agent must not
    outlive its sweep) or on SIGTERM, each time shutting its pool down;
    2 on a protocol error before the spec was accepted.
    """
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    out = sys.stdout

    def emit(kind: str, body: dict[str, Any]) -> None:
        out.write(encode_envelope(kind, body) + "\n")
        out.flush()

    emit("hello", {
        "host": os.uname().nodename if hasattr(os, "uname") else "unknown",
        "pid": os.getpid(),
        "workers": max(1, int(workers)),
    })
    spec_line = sys.stdin.readline()  # still blocking: nothing to fork yet
    if not spec_line:
        return 2
    try:
        spec, extras = decode_spec(spec_line.rstrip("\n"))
    except WireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    heartbeat_s = float(extras.get("heartbeat_s", DEFAULT_HEARTBEAT_S))
    emit("spec-ack", {"fingerprint": spec.fingerprint()})

    # Workers inherit this and use it to tell "I run under an agent"
    # apart from the plain local pool (see the flaky kill-agent mode).
    os.environ["REPRO_SWEEP_AGENT"] = "1"
    pool = _WorkerPool(spec.cells, "agent-worker")
    stdin = _Lines(sys.stdin.fileno())

    # Journal mode (spec extras carry the driver's request): buffer
    # begin/end events for this agent's cell.run spans and ship them as
    # `journal` envelopes.  The driver namespaces actors and sids by
    # host on receipt; a SIGKILLed agent simply never flushes its last
    # buffer, and the driver synthesises the missing ends at close.
    journal_on = bool(extras.get("journal"))
    journal_events: list[dict[str, Any]] = []
    open_spans: dict[str, tuple[str, str, str]] = {}  # lease -> (sid, actor, cell)
    span_seq = 0

    def span_begin(lease_id: str, cell_id: str, pid: int,
                   attempt: Any) -> None:
        nonlocal span_seq
        if not journal_on:
            return
        span_seq += 1
        sid = f"a{span_seq}"
        actor = f"worker/{pid}"
        open_spans[lease_id] = (sid, actor, cell_id)
        event: dict[str, Any] = {
            "ev": "begin", "span": "cell.run", "sid": sid, "actor": actor,
            "cell": cell_id, "lease": lease_id, "t": time.time(),
        }
        if attempt is not None:
            event["fields"] = {"attempt": attempt}
        journal_events.append(event)

    def span_end(lease_id: str, **fields: Any) -> None:
        if not journal_on:
            return
        entry = open_spans.pop(lease_id, None)
        if entry is None:
            return
        sid, actor, cell_id = entry
        journal_events.append({
            "ev": "end", "span": "cell.run", "sid": sid, "actor": actor,
            "cell": cell_id, "lease": lease_id, "t": time.time(),
            "fields": fields,
        })

    def flush_journal() -> None:
        if journal_events:
            emit("journal", {"events": journal_events})
            journal_events.clear()

    lease_cells: dict[str, str] = {}
    done = 0
    # Heartbeats at half the driver's interval: one drop never kills us.
    beat_every = max(0.05, heartbeat_s / 2.0)
    next_beat = time.monotonic() + beat_every
    try:
        while True:
            timeout = max(0.0, min(beat_every, next_beat - time.monotonic()))
            connection.wait([stdin.fd, *pool.waitables()], timeout=timeout)
            for command in stdin.drain():
                if command is None:
                    return 0  # driver went away; die with it
                try:
                    kind, body = decode_envelope(command)
                except WireError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    continue
                if kind == "shutdown":
                    # Flush any ends buffered in this drain batch (a
                    # cancel riding with the shutdown) before dying,
                    # or they would surface as synthetic aborted ends.
                    flush_journal()
                    return 0
                if kind == "lease":
                    lease_id = str(body["lease"])
                    cell_id = str(body["cell"])
                    error = None
                    if cell_id not in pool.index_of:
                        error = f"agent does not know cell {cell_id!r}"
                    else:
                        worker = pool.claim()
                        # Begin span on the wire BEFORE the cell starts:
                        # a cell that SIGKILLs this agent must never
                        # outrace its own begin event to the driver.
                        span_begin(lease_id, cell_id, worker.proc.pid,
                                   body.get("attempt"))
                        flush_journal()
                        if not pool.start(lease_id, worker, cell_id):
                            error = "agent worker died before accepting the cell"
                    if error is not None:
                        span_end(lease_id, ok=False, error=error)
                        emit("result", {
                            "lease": lease_id, "cell": cell_id,
                            "ok": False, "error": error,
                        })
                    else:
                        lease_cells[lease_id] = cell_id
                elif kind == "cancel":
                    lease_id = str(body["lease"])
                    pool.cancel(lease_id)
                    lease_cells.pop(lease_id, None)
                    span_end(lease_id, ok=False, cancelled=True)
            for lease_id, blob in pool.poll(timeout=0.0):
                if blob.get("ok"):
                    done += 1
                span_end(lease_id, **_run_fields(blob))
                # Journal before result: the driver may stop reading
                # the moment the last result settles the sweep, and
                # the pipe preserves order — so the span's real end
                # always lands before the result that retires it.
                flush_journal()
                emit("result", {
                    "lease": lease_id,
                    "cell": lease_cells.pop(lease_id, "?"),
                    "ok": bool(blob.get("ok")),
                    "payload": blob.get("payload"),
                    "error": blob.get("error", ""),
                })
            flush_journal()
            now = time.monotonic()
            if now >= next_beat:
                emit("heartbeat", {"busy": sorted(pool.busy), "done": done})
                next_beat = now + beat_every
    except (BrokenPipeError, OSError):
        return 0  # driver pipe gone mid-write
    finally:
        pool.shutdown()
