"""The sweep core: one commit ledger and one persistent worker pool.

``run_sweep`` drives a grid of independent cells through N *long-lived*
worker processes.  Workers are forked once per sweep (not once per cell
— fork-per-cell cost was measured to make small-cell sweeps slower than
sequential runs), inherit warm imports and any runner-prewarmed shared
state (e.g. one read-only workload stream per distinct workload spec),
then pull cell indices from their pipe and stream results back as they
finish.  The isolation properties the experiment layer needs survive
the pooling, now scoped per *worker*:

* **crash isolation** — a worker that raises reports the error and
  lives on; a worker that hard-exits or is killed (OOM killer, signal)
  costs only its in-flight cell and is replaced by a fresh worker; the
  sweep never aborts.
* **bounded retry** — a failed attempt (crash *or* timeout) is requeued
  at the *front* of the pending queue, up to ``max_attempts``, so a
  flaky cell's retry does not wait behind every untried cell on a wide
  grid; a cell that keeps failing is recorded as a failed outcome and
  the rest of the grid still completes.
* **timeouts** — a cell past ``timeout_s`` has its worker terminated
  (SIGTERM, then SIGKILL) and is treated as a failed attempt; the error
  records the actual wall time and attempt number, so a chaos report
  can tell a slow cell from a hung one.
* **deterministic merge** — results are keyed by cell id and reported
  in spec order, so worker scheduling never leaks into the output.
  Payloads round-trip through JSON in the worker (``json.dumps`` on the
  worker side of the pipe, ``json.loads`` on the parent side), so the
  merged values are exactly what a report file would contain and a
  parallel sweep over deterministic cells stays byte-identical to the
  sequential run.

On top of the pool sits a **content-addressed result cache**
(``cache_dir``): before any worker is spawned, each pending cell's
fingerprint (:func:`~repro.sweep.spec.cell_fingerprint`) is looked up
in the :class:`~repro.sweep.manifest.ResultCache`; hits are returned
without spawning any work, so an unchanged grid re-runs with *zero*
child processes.  Manifest resume takes precedence over the cache — the
manifest records what *this* sweep already established, including
attempt counts — and a corrupted cache entry degrades to a live run.

The same two pieces serve the distributed sweep
(:mod:`repro.sweep.remote`): its driver settles every lease through
:class:`_Ledger`, and each host agent runs its cells on a
:class:`_WorkerPool`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import TYPE_CHECKING, Any, Callable, Iterable, NoReturn

from repro.sweep.manifest import Manifest, ResultCache
from repro.sweep.spec import (
    SweepCell,
    SweepSpec,
    cell_fingerprint,
    resolve_prewarm,
    resolve_runner,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports sweep)
    from repro.obs import SweepObserver

__all__ = [
    "CellOutcome",
    "SweepResult",
    "SweepInterrupted",
    "run_sweep",
    "DEFAULT_MAX_ATTEMPTS",
]

DEFAULT_MAX_ATTEMPTS = 3


class SweepInterrupted(RuntimeError):
    """Raised when an operator signal stopped a sweep before completion.

    The sweep shut down *gracefully* before raising: dispatch stopped,
    in-flight cells were flushed to the manifest as pending, and every
    worker (or host agent) was terminated with an escalating
    SIGTERM-grace-SIGKILL.  ``str(exc)`` is a one-line summary suitable
    for the CLI.
    """

    def __init__(self, done: int, failed: int, total: int,
                 manifest_path: str | None) -> None:
        self.done = done
        self.failed = failed
        self.total = total
        self.manifest_path = manifest_path
        hint = (
            f"; manifest flushed to {manifest_path} — re-run with --resume"
            if manifest_path
            else ""
        )
        super().__init__(
            f"{done}/{total} cells done, {failed} failed, "
            f"{total - done - failed} unfinished{hint}"
        )


class _SignalGuard:
    """Two-stage SIGINT/SIGTERM handling around a sweep.

    The first signal flips :attr:`stop` — the pool stops dispatching,
    flushes the manifest and raises :class:`SweepInterrupted`; the
    second signal raises ``KeyboardInterrupt`` straight out of the
    handler, force-killing the run through the pool's ``finally``
    cleanup.  Handlers are only installed in the main thread (the only
    place Python allows it; elsewhere ``signal.signal`` raises
    ``ValueError``); elsewhere the guard is inert.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, note: Callable[[str], None]) -> None:
        self.stop = False
        self._note = note
        self._previous: dict[int, Any] = {}

    def _handle(self, signum: int, frame: Any) -> None:
        if self.stop:  # second signal: force
            raise KeyboardInterrupt
        self.stop = True
        self._note(
            f"caught {signal.Signals(signum).name}: finishing in-flight "
            f"cells' shutdown, flushing manifest (signal again to force-kill)"
        )

    def __enter__(self) -> "_SignalGuard":
        for sig in self.SIGNALS:
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # not the main thread
                pass
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass


@dataclass(frozen=True)
class CellOutcome:
    """Final state of one cell after isolation, retries and merge."""

    cell: SweepCell
    status: str  # "done" | "failed"
    attempts: int  # total attempts the cell has consumed, across resumes
    payload: Any = None
    error: str = ""
    resumed: bool = False  # skipped because the manifest had it done
    cached: bool = False  # payload served from the result cache

    @property
    def ok(self) -> bool:
        return self.status == "done"


@dataclass(frozen=True)
class SweepResult:
    """All outcomes, in spec order regardless of completion order."""

    spec: SweepSpec
    outcomes: tuple[CellOutcome, ...]
    workers: int
    #: Worker processes actually forked — 0 when every cell was resumed
    #: from the manifest or served from the result cache.  For a
    #: distributed sweep this counts agent processes plus any local
    #: fallback workers.
    spawned_workers: int = 0
    #: Per-host outcomes (:class:`repro.sweep.remote.HostOutcome`) when
    #: the sweep ran through ``run_remote_sweep``; empty for local runs.
    host_outcomes: tuple = ()
    #: Cells settled from the result cache *after* dispatch began (a
    #: requeued cell whose fingerprint-identical sibling finished first).
    #: Start-of-run cache hits show as ``CellOutcome.cached`` instead.
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> tuple[CellOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    def payloads(self) -> dict[str, Any]:
        return {o.cell.id: o.payload for o in self.outcomes if o.ok}


# --------------------------------------------------------------------------
# The ledger: every change of a cell's state
# --------------------------------------------------------------------------


class _Ledger:
    """Pending cells, settled outcomes, the manifest and the result cache.

    The only code that commits, retries, fails, requeues, serves a cell
    from the cache and flushes in-flight cells on interrupt.  Every
    driver — the local pool, the remote scheduler, and the local pool
    again after a fleet loss — pops attempts from :meth:`pop` and hands
    each finished one to :meth:`settle`, so they cannot disagree on
    retry policy or commit semantics.

    Construction applies the manifest-resume > result-cache > live
    precedence, so "what has already been established" means the same
    thing no matter where the remaining cells end up running.
    """

    def __init__(self, spec: SweepSpec, *, max_attempts: int,
                 manifest_path: str | None, resume: bool,
                 cache_dir: str | None, obs: "SweepObserver") -> None:
        self.total = len(spec.cells)
        self.max_attempts = max_attempts
        self.obs = obs
        prior = (
            Manifest.load(manifest_path, spec)
            if (resume and manifest_path)
            else Manifest(None, spec)
        )
        self.book = Manifest(manifest_path, spec,
                             dict(prior.cells) if resume else None)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Cells served from the cache after dispatch began.
        self.cache_hits = 0
        self.outcomes: dict[str, CellOutcome] = {}
        self.pending: deque[tuple[SweepCell, int]] = deque()
        done_before = prior.completed
        for cell in spec.cells:
            if cell.id in done_before:
                attempts = prior.cells[cell.id].get("attempts", 1)
                self.outcomes[cell.id] = CellOutcome(
                    cell=cell, status="done", attempts=attempts,
                    payload=done_before[cell.id], resumed=True,
                )
                obs.emit("cell.resumed", cell=cell.id, attempts=attempts)
            else:
                self.pending.append((cell, 1))
        # Cache pass: anything the manifest did not cover may still be an
        # unchanged cell from an earlier sweep.  Hits never spawn work.
        if self.cache is not None:
            self.pending = deque(
                item for item in self.pending
                if not self._serve_from_cache(item[0], mid_run=False)
            )

    def unsettled(self) -> int:
        return self.total - len(self.outcomes)

    def _serve_from_cache(self, cell: SweepCell, *, mid_run: bool) -> bool:
        key = cell_fingerprint(cell)
        entry = self.cache.load(key) if key is not None else None
        if entry is None:
            return False
        attempts = entry.get("attempts", 1)
        if not isinstance(attempts, int) or attempts < 1:
            attempts = 1
        self.outcomes[cell.id] = CellOutcome(
            cell=cell, status="done", attempts=attempts,
            payload=entry["payload"], cached=True,
        )
        self.book.record_done(cell.id, attempts, entry["payload"])
        progress: dict[str, Any] = {}
        if mid_run:
            self.cache_hits += 1
            progress = {"when": "redispatch", "done": len(self.outcomes),
                        "total": self.total}
        self.obs.emit("cell.cache_hit", cell=cell.id, key=key[:12], **progress)
        return True

    def pop(self) -> tuple[SweepCell, int] | None:
        """The next ``(cell, attempt)`` to run, or None if none is pending.

        A popped cell may have its payload in the cache by now: a retry,
        or a requeue after a host loss, whose fingerprint-identical
        sibling finished in the meantime.  It is served from there rather
        than re-executed; determinism makes the cached payload identical
        to what a re-run would produce.
        """
        while self.pending:
            cell, attempt = self.pending.popleft()
            if cell.id in self.outcomes:
                continue
            if self.cache is not None and self._serve_from_cache(cell, mid_run=True):
                continue
            return cell, attempt
        return None

    def requeue(self, cell: SweepCell, attempt: int) -> None:
        """Put back an attempt that never ran, or whose host failed rather
        than the cell: at the front, and without charging an attempt."""
        self.pending.appendleft((cell, attempt))

    def settle(self, cell: SweepCell, attempt: int, ok: bool,
               payload: Any = None, error: str = "", *,
               wall_s: float | None = None, **where: Any) -> str:
        """Commit, retry or fail one finished attempt; returns which
        (``"done"``, ``"retry"``, ``"failed"``), or ``"duplicate"`` for a
        cell that already settled — commits are at most once per cell id.
        ``where`` (``host=...``) rides along on the emitted event."""
        if cell.id in self.outcomes:
            self.obs.emit("cell.duplicate", cell=cell.id, **where)
            return "duplicate"
        if ok:
            self.outcomes[cell.id] = CellOutcome(cell, "done", attempt, payload)
            self.book.record_done(cell.id, attempt, payload)
            key = cell_fingerprint(cell) if self.cache is not None else None
            if key is not None:
                self.cache.store(key, cell_id=cell.id, attempts=attempt,
                                 payload=payload)
            self.obs.emit("cell.done", cell=cell.id, done=len(self.outcomes),
                          total=self.total, attempt=attempt, wall_s=wall_s,
                          **where)
            return "done"
        if attempt < self.max_attempts:
            self.obs.emit("cell.retry", cell=cell.id, attempt=attempt,
                          error=error, wall_s=wall_s, **where)
            # Front of the queue: on a wide sweep the retry must not wait
            # behind every untried cell and become the run's straggler.
            self.pending.appendleft((cell, attempt + 1))
            return "retry"
        self.outcomes[cell.id] = CellOutcome(cell, "failed", attempt, None, error)
        self.book.record_failed(cell.id, attempt, error)
        self.obs.emit("cell.failed", cell=cell.id, done=len(self.outcomes),
                      total=self.total, attempt=attempt, error=error,
                      wall_s=wall_s, **where)
        return "failed"

    def interrupt(self, in_flight: Iterable[tuple[SweepCell, int]]) -> NoReturn:
        """First-signal stop: record the unsettled in-flight cells as
        pending in the manifest (they re-run on ``--resume``) and raise
        :class:`SweepInterrupted`.  The caller's ``finally`` stops the
        workers or agents."""
        flushed: set[str] = set()
        for cell, attempt in in_flight:
            if cell.id in self.outcomes or cell.id in flushed:
                continue
            flushed.add(cell.id)
            self.book.record_pending(cell.id, attempt)
            self.obs.emit("cell.interrupted", cell=cell.id)
        done = sum(1 for o in self.outcomes.values() if o.ok)
        raise SweepInterrupted(done, len(self.outcomes) - done, self.total,
                               self.book.path)


def _run_grid(
    spec: SweepSpec,
    drive: Callable[[_Ledger, _SignalGuard], int],
    *,
    workers: int,
    span: dict[str, Any],
    max_attempts: int,
    manifest_path: str | None,
    resume: bool,
    cache_dir: str | None,
    progress: Callable[[str], None] | None,
    obs: "SweepObserver | None",
    hosts: Callable[[], tuple] = tuple,
) -> SweepResult:
    """The frame shared by ``run_sweep`` and ``run_remote_sweep``.

    Opens the ``sweep``/``prepare``/``merge`` spans, builds the ledger,
    lets ``drive(ledger, guard)`` run whatever is pending under the
    signal guard (it returns how many processes it spawned), and merges
    the outcomes in spec order.  ``hosts()`` supplies the per-host
    outcomes.  With ``obs`` None, a null observer narrating only to
    ``progress`` is used and outputs are byte-identical to
    pre-observability runs.
    """
    if obs is None:
        # Imported here: repro.obs imports back into the sweep package.
        from repro.obs import SweepObserver

        obs = SweepObserver(progress=progress)
    sweep_sid = obs.begin("sweep", spec=spec.name, cells=len(spec.cells),
                          **span)
    try:
        prep_sid = obs.begin("prepare")
        ledger = _Ledger(spec, max_attempts=max(1, int(max_attempts)),
                         manifest_path=manifest_path, resume=resume,
                         cache_dir=cache_dir, obs=obs)
        obs.end(prep_sid, pending=len(ledger.pending),
                settled=len(ledger.outcomes))
        obs.status_tick(pending=len(ledger.pending), leased=0, force=True)

        spawned = 0
        if ledger.pending:
            with _SignalGuard(obs.note) as guard:
                spawned = drive(ledger, guard)

        merge_sid = obs.begin("merge")
        result = SweepResult(
            spec=spec,
            outcomes=tuple(ledger.outcomes[cell.id] for cell in spec.cells),
            workers=workers,
            spawned_workers=spawned,
            host_outcomes=hosts(),
            cache_hits=ledger.cache_hits,
        )
        obs.end(merge_sid, cells=len(result.outcomes))
    except SweepInterrupted:
        obs.end(sweep_sid, state="interrupted")
        obs.status_tick(force=True)
        raise
    obs.end(sweep_sid, state="done" if result.ok else "failed")
    obs.status_tick(pending=0, leased=0, force=True)
    return result


# --------------------------------------------------------------------------
# The worker pool
# --------------------------------------------------------------------------


def _worker_main(cells: tuple[SweepCell, ...], conn: Any) -> None:
    """Worker body: pull cell indices, stream ``{ok, payload|error}`` back.

    Lives for the whole sweep: imports stay warm and runner-level caches
    (shared workload streams) persist across cells.  Exceptions are
    *reported*, not re-raised — the parent decides about retries.  A
    worker that dies before ``send_bytes`` lands simply leaves the pipe
    at EOF, which the parent reads as a crash.
    """
    # Signals belong to the parent.  A handler inherited through fork
    # (the sweep's signal guard, the agent's SIGTERM exit) would turn
    # the parent's SIGTERM into a reported error or a journal line from
    # the wrong process; SIGINT is the parent's graceful stop to run.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Warm the runner registry (and everything the builtin runners pull
    # in) before the first cell, not during it.
    import repro.sweep.runners  # noqa: F401

    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):
            return
        if index is None:
            return
        cell = cells[index]
        # t0/t1 bracket the runner only — the parent differences them into
        # the journal's compute time; journal-off parents ignore the keys.
        t0 = time.time()
        try:
            payload = resolve_runner(cell.runner)(cell.params)
            blob: dict[str, Any] = {"ok": True, "payload": payload}
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            blob = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        blob["t0"] = t0
        blob["t1"] = time.time()
        blob["pid"] = os.getpid()
        try:
            wire = json.dumps(blob, sort_keys=True)
        except TypeError as exc:
            wire = json.dumps(
                {"ok": False, "error": f"unserialisable cell payload: {exc}"}
            )
        try:
            conn.send_bytes(wire.encode("utf-8"))
        except (BrokenPipeError, OSError):
            return


def _run_fields(blob: dict[str, Any]) -> dict[str, Any]:
    """End fields of a ``cell.run`` span for one worker result: the
    runner's compute time when the worker reported one, else the error."""
    fields: dict[str, Any] = {"ok": bool(blob.get("ok"))}
    t0, t1 = blob.get("t0"), blob.get("t1")
    if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):
        fields["compute_s"] = max(0.0, t1 - t0)
    elif not fields["ok"]:
        fields["error"] = blob.get("error")
    return fields


@dataclass
class _Worker:
    """Parent-side handle on one pool member."""

    proc: Any
    conn: Any


def _kill(proc: Any, grace_s: float = 1.0) -> None:
    """Escalating stop: SIGTERM, a bounded grace window, then SIGKILL.

    The grace window is what lets a worker's ``atexit`` hooks and cache
    cleanup run; only a process that ignores SIGTERM past ``grace_s``
    is killed outright.  Already-dead processes are just reaped.
    """
    if proc.exitcode is not None:
        proc.join(0.0)
        return
    proc.terminate()
    proc.join(max(0.0, grace_s))
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


def _context(start_method: str | None = None) -> Any:
    """Prefer fork so cell params (and prewarmed shared state) travel to
    workers by inheritance and may hold arbitrary objects (factories,
    configs).  Under spawn — fork-less hosts, or an explicit
    ``REPRO_SWEEP_START_METHOD=spawn`` override — the spec must be
    picklable, which every declarative (wire-portable) grid is; prewarm
    hooks simply stop paying off and workers rebuild shared state on
    demand.
    """
    method = start_method or os.environ.get("REPRO_SWEEP_START_METHOD")
    if method:
        if method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unsupported sweep start method {method!r}; this host "
                f"offers: {', '.join(multiprocessing.get_all_start_methods())}"
            )
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _crash_error(proc: Any) -> str:
    code = proc.exitcode
    if code is not None and code < 0:
        return f"worker killed by signal {-code}"
    return f"worker crashed without a result (exit code {code})"


class _WorkerPool:
    """Persistent workers for one grid, each run tracked by a caller key.

    The local loop keys runs by cell id, a host agent by lease id.
    Workers are forked on demand and reused once idle; results and
    deaths arrive through one ``connection.wait`` over pipe ends and
    process sentinels, so a result, a crash and a deadline are all one
    wake-up.  The caller decides how many runs to keep in flight.
    """

    def __init__(self, cells: tuple[SweepCell, ...], name: str) -> None:
        self.ctx = _context()
        self.cells = cells
        self.index_of = {cell.id: i for i, cell in enumerate(cells)}
        self.name = name
        self.idle: list[_Worker] = []
        self.busy: dict[str, _Worker] = {}
        self.spawned = 0

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.cells, child_conn),
            name=f"{self.name}-{self.spawned}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.spawned += 1
        return _Worker(proc, parent_conn)

    def _drop(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        _kill(worker.proc)

    def claim(self) -> _Worker:
        """A live idle worker, or a freshly forked one.  Split from
        :meth:`start` so an agent can journal the run's begin span (which
        names the worker) before the cell can possibly start."""
        while self.idle:
            worker = self.idle.pop()
            if worker.proc.is_alive():
                return worker
            self._drop(worker)
        return self._spawn()

    def start(self, key: str, worker: _Worker, cell_id: str) -> bool:
        """Send ``cell_id`` to a claimed worker and track the run as
        ``key``; False if the worker died first (the cell never ran)."""
        try:
            worker.conn.send(self.index_of[cell_id])
        except (BrokenPipeError, OSError):
            self._drop(worker)
            return False
        self.busy[key] = worker
        return True

    def waitables(self) -> list[Any]:
        return [h for w in self.busy.values() for h in (w.conn, w.proc.sentinel)]

    def poll(self, timeout: float | None) -> list[tuple[str, dict[str, Any]]]:
        """Runs that finished within ``timeout``, as ``(key, blob)``.  A
        worker that died without a result is dropped and its run reports
        ``{ok: False, error}``."""
        if not self.busy:
            return []
        ready = set(connection.wait(self.waitables(), timeout=timeout))
        finished: list[tuple[str, dict[str, Any]]] = []
        for key, worker in list(self.busy.items()):
            if worker.conn not in ready and worker.proc.sentinel not in ready:
                continue
            del self.busy[key]
            try:
                # Only read what is there: a sentinel-only wake with an
                # empty pipe is a death, not a result still in flight.
                if worker.conn.poll():
                    blob = json.loads(worker.conn.recv_bytes().decode("utf-8"))
                    self.idle.append(worker)
                    finished.append((key, blob))
                    continue
            except (EOFError, OSError, json.JSONDecodeError):
                pass
            worker.proc.join(1.0)
            finished.append((key, {"ok": False,
                                   "error": _crash_error(worker.proc)}))
            self._drop(worker)
        return finished

    def cancel(self, key: str) -> None:
        """Kill the worker running ``key``; its result is never read."""
        worker = self.busy.pop(key, None)
        if worker is not None:
            self._drop(worker)

    def shutdown(self) -> None:
        """Let idle workers exit on their sentinel, kill the rest."""
        for worker in self.idle:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.idle:
            worker.proc.join(1.0)
        for worker in [*self.idle, *self.busy.values()]:
            self._drop(worker)
        self.idle.clear()
        self.busy.clear()


# --------------------------------------------------------------------------
# The local sweep
# --------------------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    manifest_path: str | None = None,
    resume: bool = False,
    cache_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
    obs: "SweepObserver | None" = None,
) -> SweepResult:
    """Execute every cell of ``spec`` across a pool of ``workers``.

    Always completes: per-cell failures (exceptions, hard crashes,
    timeouts) are retried up to ``max_attempts`` and then recorded as
    failed outcomes.  With ``manifest_path`` set, every final cell state
    is checkpointed; ``resume=True`` loads the manifest and skips cells
    already done (failed cells run again), carrying their recorded
    attempt counts through to the outcomes.  With ``cache_dir`` set,
    completed payloads are memoized by cell fingerprint and unchanged
    cells are served from the cache without spawning any worker.

    ``obs`` carries the journal/status sinks (:mod:`repro.obs`); when
    None, a null observer narrating only to ``progress`` is used and
    the sweep's outputs are byte-identical to pre-observability runs.
    """
    workers = max(1, int(workers))
    return _run_grid(
        spec,
        lambda ledger, guard: _run_local(spec, ledger, guard, workers=workers,
                                         timeout_s=timeout_s),
        workers=workers, span={"workers": workers},
        max_attempts=max_attempts, manifest_path=manifest_path,
        resume=resume, cache_dir=cache_dir, progress=progress, obs=obs,
    )


def _prewarm(cells: Iterable[SweepCell]) -> None:
    """Parent-side warm-up: import the runners (forked workers inherit
    the loaded modules) and let each runner prewarm shared read-only
    state for its pending cells — e.g. one numeric workload stream per
    distinct workload spec, built once per grid instead of per cell."""
    import repro.sweep.runners  # noqa: F401

    by_runner: dict[str, list[SweepCell]] = {}
    for cell in cells:
        by_runner.setdefault(cell.runner, []).append(cell)
    for runner_key, runner_cells in by_runner.items():
        prewarm = resolve_prewarm(runner_key)
        if prewarm is None:
            continue
        try:
            prewarm(runner_cells)
        except Exception:  # noqa: BLE001 - best-effort; workers rebuild on demand
            pass


def _run_local(spec: SweepSpec, ledger: _Ledger, guard: _SignalGuard, *,
               workers: int, timeout_s: float | None) -> int:
    """Drive the ledger's pending cells through ``workers`` local workers;
    returns the number of worker processes spawned."""
    _prewarm(cell for cell, _ in ledger.pending)
    obs = ledger.obs
    pool = _WorkerPool(spec.cells, "sweep-worker")
    # cell id -> (cell, attempt, start time, open cell.run span)
    flight: dict[str, tuple[SweepCell, int, float, str | None]] = {}
    try:
        while ledger.pending or flight:
            if guard.stop:
                for _, _, _, sid in flight.values():
                    obs.end(sid, ok=False, interrupted=True)
                ledger.interrupt((c, a) for c, a, _, _ in flight.values())
            while len(flight) < workers and (popped := ledger.pop()) is not None:
                cell, attempt = popped
                worker = pool.claim()
                if not pool.start(cell.id, worker, cell.id):
                    ledger.requeue(cell, attempt)
                    break
                flight[cell.id] = (cell, attempt, time.monotonic(), obs.begin(
                    "cell.run", actor=f"worker/local/{worker.proc.pid}",
                    cell=cell.id, attempt=attempt,
                ))
            if not flight:
                continue

            wait_s = None
            if timeout_s is not None:
                first = min(started for _, _, started, _ in flight.values())
                wait_s = max(0.0, first + timeout_s - time.monotonic())
            for key, blob in pool.poll(wait_s):
                cell, attempt, started, sid = flight.pop(key)
                obs.end(sid, **_run_fields(blob))
                ledger.settle(
                    cell, attempt, bool(blob.get("ok")), blob.get("payload"),
                    str(blob.get("error", "worker reported failure")),
                    wall_s=time.monotonic() - started,
                )
            now = time.monotonic()
            for key, (cell, attempt, started, sid) in list(flight.items()):
                if timeout_s is None or now - started < timeout_s:
                    continue
                del flight[key]
                pool.cancel(key)
                error = (f"timeout: attempt {attempt} killed after "
                         f"{now - started:.2f}s wall (limit {timeout_s}s)")
                obs.end(sid, ok=False, error=error)
                ledger.settle(cell, attempt, False, error=error,
                              wall_s=time.monotonic() - started)
            obs.status_tick(pending=len(ledger.pending), leased=len(flight))
    finally:
        pool.shutdown()
    return pool.spawned
