"""The four figure-path workloads: set-up, one measured pass, its checks.

A workload object is built by its set-up (everything before the first
simulated access: the R-MAT graph, the YCSB sessions, the sweep's
prewarmed numeric streams) and measured by :meth:`run`, which simulates
every run, digests each run's result and checks the figure's claims.

A *run* is one (kernel | phase | cell | tenant mix, policy) unit, keyed
by a stable id.  Its digest is a hash of ``RunResult.to_dict()`` (or the
sweep cell's payload, or the colocation rows plus machine counters), so
two passes agree exactly when they simulated exactly the same thing.

Seeds: benchmark seed ``s`` offsets every seed a figure uses (graph
``7+s``, kernel ``3+s``, YCSB ``42+s``, sweep workload and config
``42+s``, colocation ``7+s``), so seed 0 is the published figure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import time
from typing import Any, Callable

# Every simulator import happens here, when the measuring process loads
# this module, so import cost lands in set-up time.
from repro.analysis.compare import normalize_exec_time, normalize_throughput
from repro.experiments.colo import run_colo
from repro.experiments.common import scaled_config
from repro.experiments.fig6_gapbs import GAPBS_KERNEL_ORDER
from repro.machine import Machine
from repro.obs import Journal, SweepObserver, fold_profile, pair_spans, read_journal
from repro.run import run_workload
from repro.sweep import SweepCell, SweepSpec, resolve_runner, run_sweep
from repro.sweep.runners import shared_stream
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession

from layers import Profiler, layer_metrics

__all__ = ["WORKLOADS", "Pass", "digest", "geomean"]

#: The Fig 5/6 comparison set (``repro.experiments.common.EVALUATED_POLICIES``).
FIGURE_POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm", "autotiering-opm")
#: The sweep grid's policies: the four the sweep microbenchmark uses.
SWEEP_POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm")
SWEEP_KINDS = ("zipf", "shifting-hotset")
SWEEP_WORKERS = 2


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _add(total: dict[str, int], counters: dict[str, int]) -> None:
    for key, value in counters.items():
        total[key] = total.get(key, 0) + value


@dataclasses.dataclass
class Pass:
    """What one measured pass produced."""

    runs: int
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    failures: dict[str, str] = dataclasses.field(default_factory=dict)
    counters: dict[str, int] = dataclasses.field(default_factory=dict)
    mc_vs_static: float = math.nan
    broken_claims: list[str] = dataclasses.field(default_factory=list)

    def record(self, unit: str, payload: Any, *counters: dict[str, int]) -> None:
        self.digests[unit] = digest(payload)
        for each in counters:
            _add(self.counters, each)

    def fail(self, unit: str, exc: BaseException) -> None:
        self.failures[unit] = f"{type(exc).__name__}: {exc}"

    def claim(self, holds: bool, text: str) -> None:
        if not holds:
            self.broken_claims.append(text)


Pace = Callable[[int], None]


def _no_pace(samples: int) -> None:
    pass


def _checked(profiler: Profiler | None, fn: Callable[[], None]) -> None:
    """Run the result checks, inside a ``bench.check`` span when traced."""
    if profiler is None:
        fn()
    else:
        profiler.call("bench.check", fn)


class FigureWorkload:
    name = ""
    runs = 0

    def run(self, profiler: Profiler | None = None, pace: Pace = _no_pace) -> Pass:
        """One pass; ``pace`` is called between runs (host-speed samples)."""
        raise NotImplementedError

    def traced_pass(self, profiler: Profiler) -> tuple[Pass, float, dict[str, float]]:
        """One pass with every layer wrapped: (pass, traced wall, metrics)."""
        profiler.install()
        t0 = time.perf_counter()
        result = self.run(profiler)
        wall = time.perf_counter() - t0
        metrics = layer_metrics(profiler, result.counters)
        metrics["trace.unattributed_frac"] = max(
            0.0, 1.0 - profiler.attributed_ns() / 1e9 / wall
        )
        return result, wall, metrics


class Fig6Gapbs(FigureWorkload):
    """``run_fig6`` at the figure benchmark's scale, seeded."""

    name = "fig6-gapbs"
    runs = 6 * len(FIGURE_POLICIES)

    def __init__(self, seed: int, marks: dict[str, float]) -> None:
        t0 = time.perf_counter()
        self.graph = Graph.rmat(scale=11, edge_factor=8, seed=7 + seed)
        marks["setup.graph_s"] = time.perf_counter() - t0
        self.kernel_seed = 3 + seed

    def run(self, profiler: Profiler | None = None, pace: Pace = _no_pace) -> Pass:
        out = Pass(self.runs)
        comparisons = {}
        for kernel_name in GAPBS_KERNEL_ORDER:
            results = {}
            for policy in FIGURE_POLICIES:
                unit = f"{kernel_name}/{policy}"
                pace(1)
                try:
                    kernel = KERNELS[kernel_name](
                        self.graph, trials=3, seed=self.kernel_seed
                    )
                    dram = max(24, int(kernel.footprint_pages() * 0.4))
                    config = scaled_config(
                        dram_pages=dram,
                        pm_pages=kernel.footprint_pages() * 4,
                        interval_s=0.1,
                        scan_budget_pages=64,
                    )
                    machine = Machine(config, policy)
                    load = run_workload(kernel.load_workload(), config, machine=machine)
                    results[policy] = run_workload(kernel, config, machine=machine)
                except Exception as exc:  # noqa: BLE001 - a failed run is counted
                    out.fail(unit, exc)
                    continue
                ran = results[policy]
                _checked(profiler, lambda unit=unit, load=load, ran=ran: out.record(
                    unit, [load.to_dict(), ran.to_dict()], load.counters, ran.counters))
            if len(results) == len(FIGURE_POLICIES):
                comparisons[kernel_name] = normalize_exec_time(results)

        def claims() -> None:
            # The assertions of benchmarks/test_fig6_gapbs.py.
            values = {k: c.values for k, c in comparisons.items()}
            out.claim(set(values) == set(GAPBS_KERNEL_ORDER), "every kernel compared")
            for kernel, v in values.items():
                out.claim(v["multiclock"] < 1.0, f"{kernel}: multiclock beats static")
            wins = sum(v["multiclock"] <= v["nimble"] for v in values.values())
            out.claim(wins >= len(values) - 1, "multiclock beats nimble on all but one kernel")
            out.claim(
                min((v["multiclock"] for v in values.values()), default=0.0) > 0.25,
                "multiclock's best kernel within 4x of static",
            )
            if values:
                out.mc_vs_static = fig6_mc_vs_static(comparisons)

        _checked(profiler, claims)
        return out


def fig6_mc_vs_static(comparisons: dict) -> float:
    """Geomean speedup over static from Fig 6's normalized execution times."""
    return geomean([1.0 / c.values["multiclock"] for c in comparisons.values()])


def fig5_mc_vs_static(comparisons: dict) -> float:
    """Geomean speedup over static from Fig 5's normalized throughputs."""
    return geomean([c.values["multiclock"] for c in comparisons.values()])


class Fig5Ycsb(FigureWorkload):
    """``run_fig5`` at the figure benchmark's scale: Load, A..W, D per
    policy on one warm machine, seeded."""

    name = "fig5-ycsb"
    runs = 7 * len(FIGURE_POLICIES)

    def __init__(self, seed: int, marks: dict[str, float]) -> None:
        t0 = time.perf_counter()
        self.sessions = {
            policy: YCSBSession(3000, value_size=1024, seed=42 + seed)
            for policy in FIGURE_POLICIES
        }
        marks["setup.records_s"] = time.perf_counter() - t0

    def run(self, profiler: Profiler | None = None, pace: Pace = _no_pace) -> Pass:
        out = Pass(self.runs)
        footprint = next(iter(self.sessions.values())).footprint_pages()
        config = scaled_config(
            dram_pages=640, pm_pages=8192, scan_budget_pages=max(96, footprint // 8)
        )
        per_policy: dict[str, dict] = {}
        for policy, session in self.sessions.items():
            results = per_policy[policy] = {}
            phases = [("load", session.load_phase)] + [
                (name, lambda name=name: session.phase(name, ops=6000))
                for name in EXECUTION_SEQUENCE
            ]
            machine = None
            for phase, make in phases:
                unit = f"{policy}/{phase}"
                pace(1)
                try:
                    if machine is None:
                        machine = Machine(config, policy)
                    results[phase] = run_workload(make(), config, machine=machine)
                except Exception as exc:  # noqa: BLE001 - a failed run is counted
                    out.fail(unit, exc)
                    break  # later phases would run on a broken machine
                ran = results[phase]
                _checked(profiler, lambda unit=unit, ran=ran: out.record(
                    unit, ran.to_dict(), ran.counters))

        def claims() -> None:
            # The assertions of benchmarks/test_fig5_ycsb.py.
            comparisons = {
                phase: normalize_throughput({p: per_policy[p][phase] for p in FIGURE_POLICIES})
                for phase in EXECUTION_SEQUENCE
                if all(phase in per_policy[p] for p in FIGURE_POLICIES)
            }
            out.claim(len(comparisons) == len(EXECUTION_SEQUENCE), "every phase compared")
            for phase, comparison in comparisons.items():
                v = comparison.values
                out.claim(v["multiclock"] > 1.0, f"{phase}: multiclock beats static")
                for other in ("nimble", "autotiering-cpm", "autotiering-opm"):
                    out.claim(v["multiclock"] > v[other], f"{phase}: multiclock beats {other}")
            gains = {phase: c.values["multiclock"] for phase, c in comparisons.items()}
            out.claim("D" in sorted(gains, key=gains.get, reverse=True)[:2],
                      "D among the two largest gains")
            out.claim(gains.get("D", 0.0) > 1.5, "D gain above +50%")
            if comparisons:
                out.mc_vs_static = fig5_mc_vs_static(comparisons)

        _checked(profiler, claims)
        return out


class SweepGrid(FigureWorkload):
    """``repro.sweep.run_sweep`` over a zipf + shifting-hotset grid on the
    local pool: fork, pipes, merge, and the numeric array driver."""

    name = "sweep-grid"
    runs = len(SWEEP_KINDS) * len(SWEEP_POLICIES)

    def __init__(self, seed: int, marks: dict[str, float]) -> None:
        cells = []
        for kind in SWEEP_KINDS:
            workload = {"kind": kind, "pages": 4000, "ops": 100_000,
                        "seed": 42 + seed, "write_ratio": 0.2}
            config = {"dram_pages": 1024, "pm_pages": 8192, "seed": 42 + seed}
            for policy in SWEEP_POLICIES:
                cells.append(SweepCell(
                    id=f"{policy}/{kind}", runner="run-workload",
                    params={"policy": policy, "workload": workload, "config": config},
                ))
        self.spec = SweepSpec(name="figbench-sweep", cells=tuple(cells))
        # The pool's prewarm hook would build these inside run_sweep;
        # building them here first keeps stream construction in set-up.
        t0 = time.perf_counter()
        for cell in cells:
            shared_stream(cell.params["workload"])
        marks["setup.streams_s"] = time.perf_counter() - t0

    def _check(self, outcome, profiler: Profiler | None) -> Pass:
        out = Pass(self.runs)

        def check() -> None:
            payloads = {}
            for cell_outcome in outcome.outcomes:
                unit = cell_outcome.cell.id
                if not cell_outcome.ok:
                    out.failures[unit] = str(cell_outcome.error)
                    continue
                payload = payloads[unit] = cell_outcome.payload
                out.record(unit, payload, payload["counters"])
                ops = cell_outcome.cell.params["workload"]["ops"]
                out.claim(payload["accesses"] == ops == payload["operations"],
                          f"{unit}: every access of the stream simulated")
            speedups = [
                payloads[f"static/{kind}"]["elapsed_ns"]
                / payloads[f"multiclock/{kind}"]["elapsed_ns"]
                for kind in SWEEP_KINDS
                if f"static/{kind}" in payloads and f"multiclock/{kind}" in payloads
            ]
            if len(speedups) == len(SWEEP_KINDS):
                out.mc_vs_static = geomean(speedups)

        _checked(profiler, check)
        return out

    def run(self, profiler: Profiler | None = None, pace: Pace = _no_pace) -> Pass:
        pace(8)
        outcome = run_sweep(self.spec, workers=SWEEP_WORKERS)
        pace(8)
        return self._check(outcome, profiler)

    def traced_pass(self, profiler: Profiler) -> tuple[Pass, float, dict[str, float]]:
        """The grid again with the span journal armed (control plane),
        then every cell replayed in-process with the layers wrapped
        (simulator).  Both must reproduce the untraced payloads."""
        scratch = os.path.join(os.getcwd(), f".figbench_tmp-{os.getpid()}")
        os.makedirs(scratch, exist_ok=True)
        try:
            path = os.path.join(scratch, "journal.ndjson")
            obs = SweepObserver(journal=Journal(path))
            t0 = time.perf_counter()
            outcome = run_sweep(self.spec, workers=SWEEP_WORKERS, obs=obs)
            wall = time.perf_counter() - t0
            obs.close("done" if outcome.ok else "failed")
            events = read_journal(path)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        result = self._check(outcome, None)
        profile = fold_profile(events)
        cell_runs = [s.duration for s in pair_spans(events)
                     if s.span == "cell.run" and s.complete and not s.aborted]

        profiler.install()
        t0 = time.perf_counter()
        for cell in self.spec.cells:
            payload = resolve_runner(cell.runner)(cell.params)
            if digest(payload) != result.digests.get(cell.id):
                result.failures[cell.id] = "in-process replay differs from the sweep payload"
        replay = time.perf_counter() - t0

        phases = profile["phases"]
        metrics = layer_metrics(profiler, result.counters)
        metrics.update({
            "sweep.prepare_s": phases["prepare_s"],
            "sweep.execute_s": phases["execute_s"],
            "sweep.merge_s": phases["merge_s"],
            # Worker-slot time: busy running cells, and idle between
            # them (dispatch, pipes, result decoding, the tail wait).
            "sweep.compute_s": sum(cell_runs),
            "sweep.envelope_s": max(
                0.0, SWEEP_WORKERS * phases["execute_s"] - sum(cell_runs)
            ),
            "sweep.cell_p50_s": statistics.median(cell_runs) if cell_runs else 0.0,
            "sweep.cell_max_s": max(cell_runs, default=0.0),
        })
        covered = sum(phases.values()) + profiler.attributed_ns() / 1e9
        metrics["trace.unattributed_frac"] = max(0.0, 1.0 - covered / (wall + replay))
        return result, wall, metrics


class ColoMemcg(FigureWorkload):
    """``run_colo``: three KV tenants, one memcg-limited, with and
    without the limit, under MULTI-CLOCK and static tiering."""

    name = "colo-memcg"
    MIXES = (("limited", [None, None, 335]), ("unlimited", None))
    POLICIES = ("multiclock", "static")
    runs = len(MIXES) * len(POLICIES)

    def __init__(self, seed: int, marks: dict[str, float]) -> None:
        # Tenant records are inserted by the simulated load phase, so
        # nothing is built ahead of the first access.
        self.seed = 7 + seed

    def run(self, profiler: Profiler | None = None, pace: Pace = _no_pace) -> Pass:
        out = Pass(self.runs)
        virtual_ns: dict[tuple[str, str], int] = {}
        for mix, limits in self.MIXES:
            for policy in self.POLICIES:
                unit = f"{mix}/{policy}"
                pace(4)
                try:
                    colo = run_colo(
                        n_tenants=3, records_per_tenant=2000, ops_per_tenant=8000,
                        policy=policy, limits=limits, seed=self.seed,
                    )
                except Exception as exc:  # noqa: BLE001 - a failed run is counted
                    out.fail(unit, exc)
                    continue

                def record(unit=unit, colo=colo, mix=mix, policy=policy):
                    machine = colo["machine"]
                    counters = machine.stats.snapshot()
                    rows = [dataclasses.asdict(row) for row in colo["rows"]]
                    out.record(unit, {
                        "rows": rows, "oom_kills": colo["oom_kills"],
                        "now_ns": machine.clock.now_ns, "counters": counters,
                    }, counters)
                    virtual_ns[mix, policy] = machine.clock.now_ns
                    out.claim(all(not row["killed"] and row["ops_completed"] == 10_000
                                  for row in rows), f"{unit}: every tenant finished")
                    out.claim((counters.get("memcg.limit_reclaims", 0) > 0) == (limits is not None),
                              f"{unit}: targeted reclaim only under a limit")

                _checked(profiler, record)
        if len(virtual_ns) == self.runs:
            out.mc_vs_static = geomean([
                virtual_ns[mix, "static"] / virtual_ns[mix, "multiclock"]
                for mix, _ in self.MIXES
            ])
        return out


WORKLOADS: dict[str, type[FigureWorkload]] = {
    cls.name: cls for cls in (Fig6Gapbs, Fig5Ycsb, SweepGrid, ColoMemcg)
}
