"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``policies`` — list registered tiering policies with their Table-I row.
* ``run`` — simulate a synthetic workload under a policy and print the
  result summary and memory report.
* ``experiment`` — regenerate one of the paper's tables/figures by name
  (``fig1`` ... ``fig10``, ``table1``, ``table2``, ``overhead``,
  ``ablation-*``, ``ext-*``, ``colo``).
* ``colo`` — colocate N heterogeneous KV tenants on one machine with
  memcg accounting armed; prints the per-tenant p50/p99 table, with the
  usual exposition outputs (``--vmstat``, ``--prometheus``, ``--json``),
  a saved metrics snapshot (``--snapshot``) and an HTML dashboard
  (``--html``).
* ``record`` / ``replay`` — capture a workload's access trace to a file,
  or replay a trace under any policy.
* ``bench`` — host-wall-clock microbenchmarks of the simulator's hot
  paths, written to ``BENCH_perf.json`` (``--smoke`` for CI sizes).
* ``check`` — run a workload with the ``CONFIG_DEBUG_VM`` invariant
  checker sweeping periodically; nonzero exit on any violation.
* ``chaos`` — run a policy × workload matrix under a fault schedule and
  write ``CHAOS_report.json``; nonzero exit unless every cell is clean.
* ``trace`` — run a workload with the kernel-style tracepoint layer
  armed: tail the event stream, print per-event summaries, export
  NDJSON / perfetto JSON, and audit counters against the trace.
* ``sweep`` — shard a policy × workload × seed grid across crash-
  isolated worker processes (``--workers``), with per-cell retry,
  ``--timeout-s`` kills, and a resumable manifest (``--resume``);
  writes a deterministic ``SWEEP_report.json`` whose bytes do not
  depend on the worker count.  With ``--hosts``, cells shard across
  remote ``sweep-agent`` processes with heartbeats, lease re-dispatch,
  and graceful degradation to the local pool.  ``--journal`` arms the
  control-plane span journal (drives ``top``/``timeline`` and the
  report's timing/profile sections).
* ``sweep-agent`` — the host-side half of ``sweep --hosts``: serves
  cells to a driver over stdin/stdout (started via ssh, not by hand).
* ``top`` — live progress view of a running ``sweep --journal``: polls
  the atomically-rewritten ``<out>.status.json`` (``--once`` for one
  frame, ``--prometheus`` for scrapers).
* ``timeline`` — export a sweep's span journal as Chrome trace-event
  JSON with one lane per driver/host/worker; loads directly in
  https://ui.perfetto.dev.
* ``stat`` — run a workload with the metrics registry armed and print a
  one-shot snapshot: ``/proc/vmstat``-style ``name value`` lines by
  default, ``--prometheus`` text exposition, pure ``--json``, or a
  ``--windows`` per-window gauge table; ``--node`` narrows to one node.
* ``report`` — run a workload with metrics armed and write a single
  self-contained HTML dashboard (``--html``, inline SVG, no external
  assets), folding in ``SWEEP_report.json`` / ``CHAOS_report.json``
  when present.

Operator errors (unknown policy, impossible sizing, running out of
simulated memory) exit with a one-line message, not a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.machine import Machine
from repro.mm.system import OutOfMemoryError
from repro.run import run_workload
from repro.sim.config import DaemonConfig, SimulationConfig

__all__ = ["main", "EXPERIMENTS"]


def _lazy(module: str, runner: str, renderer: str) -> Callable[[], str]:
    def run() -> str:
        import importlib

        mod = importlib.import_module(f"repro.experiments.{module}")
        return getattr(mod, renderer)(getattr(mod, runner)())

    return run


EXPERIMENTS: dict[str, Callable[[], str]] = {
    "fig1": _lazy("fig1_heatmaps", "run_fig1", "render_fig1"),
    "fig2": _lazy("fig2_frequency", "run_fig2", "render_fig2"),
    "fig4": _lazy("fig4_transitions", "run_fig4", "render_fig4"),
    "fig5": _lazy("fig5_ycsb", "run_fig5", "render_fig5"),
    "fig6": _lazy("fig6_gapbs", "run_fig6", "render_fig6"),
    "fig7": _lazy("fig7_memory_mode", "run_fig7", "render_fig7"),
    "fig8": _lazy("fig8_promotions", "run_fig8", "render_fig8"),
    "fig9": _lazy("fig9_reaccess", "run_fig9", "render_fig9"),
    "fig10": _lazy("fig10_interval", "run_fig10", "render_fig10"),
    "table1": lambda: __import__(
        "repro.experiments.table1_features", fromlist=["render_table1"]
    ).render_table1(),
    "table2": lambda: __import__(
        "repro.experiments.table2_inventory", fromlist=["render_table2"]
    ).render_table2(),
    "overhead": _lazy("overhead", "run_overhead", "render_overhead"),
    "ablation-ratio": _lazy("ablation_ratio", "run_ablation_ratio", "render_ablation_ratio"),
    "ablation-dirty": _lazy("ablation_dirty", "run_ablation_dirty", "render_ablation_dirty"),
    "ablation-adaptive": _lazy(
        "ablation_adaptive", "run_ablation_adaptive", "render_ablation_adaptive"
    ),
    "ext-workload-e": _lazy("ext_workload_e", "run_ext_workload_e", "render_ext_workload_e"),
    "ext-dual-socket": _lazy("ext_dual_socket", "run_ext_dual_socket", "render_ext_dual_socket"),
    "colo": _lazy("colo", "run_colo", "render_colo"),
}

WORKLOADS = ("zipf", "uniform", "seqscan", "shifting-hotset")


def _workload_spec(args: argparse.Namespace, kind: str, seed: int | None = None) -> dict:
    """The declarative form of one ``--workload`` choice — the same
    description the sweep runners build cells from."""
    return {
        "kind": kind,
        "pages": args.pages,
        "ops": args.ops,
        "seed": args.seed if seed is None else seed,
        "write_ratio": args.write_ratio,
    }


def _workload_builders(args: argparse.Namespace) -> dict[str, Callable]:
    from repro.sweep.runners import build_workload

    return {
        kind: (lambda kind=kind: build_workload(_workload_spec(args, kind)))
        for kind in WORKLOADS
    }


def _build_workload(args: argparse.Namespace):
    return _workload_builders(args)[args.workload]()


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        dram_pages=(args.dram_pages,),
        pm_pages=(args.pm_pages,),
        swap_pages=args.swap_pages,
        daemons=DaemonConfig(
            kpromoted_interval_s=args.interval,
            kswapd_interval_s=args.interval / 2,
            hint_scan_interval_s=args.interval,
        ),
        seed=args.seed,
    )


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", default="multiclock", help="tiering policy name")
    parser.add_argument("--dram-pages", type=int, default=1024)
    parser.add_argument("--pm-pages", type=int, default=8192)
    parser.add_argument("--swap-pages", type=int, default=1 << 28,
                        help="backing-store capacity in pages")
    parser.add_argument("--interval", type=float, default=0.005,
                        help="daemon interval in virtual seconds")
    parser.add_argument("--seed", type=int, default=42)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=WORKLOADS, default="shifting-hotset")
    parser.add_argument("--pages", type=int, default=4000)
    parser.add_argument("--ops", type=int, default=100_000)
    parser.add_argument("--write-ratio", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MULTI-CLOCK hybrid-memory tiering reproduction (HPCA 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list registered tiering policies")

    run_p = sub.add_parser("run", help="simulate a synthetic workload")
    _add_machine_args(run_p)
    _add_workload_args(run_p)

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS))

    rec_p = sub.add_parser("record", help="record a workload's access trace")
    rec_p.add_argument("path", help="output trace file")
    _add_machine_args(rec_p)
    _add_workload_args(rec_p)

    rep_p = sub.add_parser("replay", help="replay a recorded trace")
    rep_p.add_argument("path", help="trace file to replay")
    _add_machine_args(rep_p)

    bench_p = sub.add_parser("bench", help="run the hot-path microbenchmarks")
    bench_p.add_argument("--smoke", action="store_true",
                         help="CI-sized workloads (seconds, not minutes)")
    bench_p.add_argument("--repeats", type=int, default=3,
                         help="timing repeats per benchmark (best-of)")
    bench_p.add_argument("--out", default=None,
                         help="output JSON path (default BENCH_perf.json)")

    check_p = sub.add_parser(
        "check", help="run a workload under the VM invariant checker"
    )
    _add_machine_args(check_p)
    _add_workload_args(check_p)
    check_p.add_argument("--strict", action="store_true",
                         help="raise on the first dirty sweep instead of counting")

    chaos_p = sub.add_parser(
        "chaos", help="run a policy × workload matrix under injected faults"
    )
    _add_machine_args(chaos_p)
    _add_workload_args(chaos_p)
    chaos_p.add_argument("--policies", default="multiclock,static",
                         help="comma-separated policies for the matrix")
    chaos_p.add_argument("--workloads", default=None,
                         help="comma-separated workloads (default: --workload)")
    chaos_p.add_argument("--fail-rate", type=float, default=0.2,
                         help="transient migration copy-failure probability")
    chaos_p.add_argument("--out", default=None,
                         help="report path (default CHAOS_report.json)")
    chaos_p.add_argument("--trace-capacity", type=int, default=None,
                         help="arm tracing with this per-node ring capacity "
                              "and audit every cell")
    chaos_p.add_argument("--workers", type=int, default=1,
                         help="shard the matrix across this many crash-"
                              "isolated worker processes")

    sweep_p = sub.add_parser(
        "sweep", help="shard a policy × workload × seed grid across workers"
    )
    _add_machine_args(sweep_p)
    _add_workload_args(sweep_p)
    sweep_p.add_argument("--policies",
                         default="static,multiclock,nimble,autotiering-cpm,autotiering-opm",
                         help="comma-separated policies (default: the Fig 5 set)")
    sweep_p.add_argument("--workloads", default=None,
                         help="comma-separated workloads (default: --workload)")
    sweep_p.add_argument("--seeds", default=None,
                         help="comma-separated seeds (default: --seed)")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="worker processes; cells are crash-isolated")
    sweep_p.add_argument("--timeout-s", type=float, default=None,
                         help="kill a cell after this many host seconds "
                              "(counts as a failed attempt)")
    sweep_p.add_argument("--max-attempts", type=int, default=3,
                         help="attempts per cell before it is recorded as failed")
    sweep_p.add_argument("--resume", action="store_true",
                         help="skip cells already completed in the manifest")
    sweep_p.add_argument("--manifest", default=None,
                         help="checkpoint path (default: <out>.manifest.json)")
    sweep_p.add_argument("--cache", dest="cache", action="store_true",
                         default=True,
                         help="serve unchanged cells from the content-"
                              "addressed result cache (default: on)")
    sweep_p.add_argument("--no-cache", dest="cache", action="store_false",
                         help="disable the result cache; every cell runs live")
    sweep_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: <out>.cache)")
    sweep_p.add_argument("--out", default=None,
                         help="report path (default SWEEP_report.json)")
    sweep_p.add_argument("--hosts", default=None,
                         help="comma-separated sweep-agent hosts "
                              "(loopback or [user@]host[:workers]); shards "
                              "cells across machines with heartbeats, "
                              "re-dispatch, and local-pool fallback")
    sweep_p.add_argument("--heartbeat-s", type=float, default=None,
                         help="agent heartbeat interval in host seconds "
                              "(default 5; a host silent for 3 intervals is "
                              "lost and its cells re-dispatched)")
    sweep_p.add_argument("--straggler-factor", type=float, default=None,
                         help="re-dispatch a leased cell running longer than "
                              "this multiple of the median cell time "
                              "(default 4; 0 disables)")
    sweep_p.add_argument("--connect-timeout-s", type=float, default=10.0,
                         help="seconds to wait for an agent's hello")
    sweep_p.add_argument("--reconnect-attempts", type=int, default=1,
                         help="reconnects per lost host before it is dead")
    sweep_p.add_argument("--journal", nargs="?", const="", default=None,
                         metavar="PATH",
                         help="arm the span journal: write control-plane "
                              "begin/end spans as NDJSON (default path "
                              "<out>.journal.ndjson), keep a live "
                              "<out>.status.json for `repro top`, and add "
                              "timing/profile sections to the report")

    agent_p = sub.add_parser(
        "sweep-agent",
        help="serve sweep cells to a remote driver over stdin/stdout "
             "(started by `repro sweep --hosts`, rarely by hand)",
    )
    agent_p.add_argument("--workers", type=int, default=1,
                         help="size of this agent's local worker pool")

    top_p = sub.add_parser(
        "top",
        help="live progress view of a running `sweep --journal` "
             "(reads <out>.status.json)",
    )
    top_p.add_argument("path", nargs="?", default=DEFAULT_SWEEP_REPORT,
                       help="sweep report path or its .status.json "
                            "(default SWEEP_report.json)")
    top_p.add_argument("--once", action="store_true",
                       help="render one frame and exit (for scripts/CI)")
    top_p.add_argument("--interval", type=float, default=1.0,
                       help="refresh interval in seconds (default 1)")
    top_p.add_argument("--prometheus", action="store_true",
                       help="print the Prometheus text exposition of one "
                            "snapshot and exit (implies --once)")

    timeline_p = sub.add_parser(
        "timeline",
        help="export a sweep's span journal as Chrome trace-event JSON "
             "(loads in https://ui.perfetto.dev)",
    )
    timeline_p.add_argument("journal", nargs="?", default=DEFAULT_SWEEP_REPORT,
                            help="journal NDJSON path, or a sweep report "
                                 "path to derive <out>.journal.ndjson from "
                                 "(default SWEEP_report.json)")
    timeline_p.add_argument("--out", default=None,
                            help="output path (default <journal>.trace.json)")

    colo_p = sub.add_parser(
        "colo", help="colocate N KV tenants with memcg accounting armed"
    )
    colo_p.add_argument("--policy", default="multiclock", help="tiering policy name")
    colo_p.add_argument("--tenants", type=int, default=3,
                        help="number of colocated KV tenants")
    colo_p.add_argument("--records", type=int, default=None,
                        help="records per tenant (default: scaled 2000)")
    colo_p.add_argument("--ops", type=int, default=None,
                        help="operations per tenant after its load phase "
                             "(default: scaled 8000)")
    colo_p.add_argument("--limits", default=None,
                        help="comma-separated per-tenant memcg page limits, "
                             "positional; 'none' (or empty) = unlimited, "
                             "e.g. --limits none,400,none")
    colo_p.add_argument("--dram-pages", type=int, default=None,
                        help="DRAM node size (default: combined footprint / 3)")
    colo_p.add_argument("--pm-pages", type=int, default=None,
                        help="PM node size (default: combined footprint * 2)")
    colo_p.add_argument("--swap-pages", type=int, default=1 << 20,
                        help="backing-store capacity in pages")
    colo_p.add_argument("--seed", type=int, default=7)
    colo_p.add_argument("--json", action="store_true",
                        help="print the metrics snapshot as JSON (nothing else)")
    colo_p.add_argument("--prometheus", action="store_true",
                        help="print the Prometheus text exposition (nothing else)")
    colo_p.add_argument("--vmstat", action="store_true",
                        help="also print the vmstat-style metrics dump")
    colo_p.add_argument("--snapshot", default=None, metavar="PATH",
                        help="also write the metrics snapshot JSON "
                             "(feed it to `repro report --snapshot`)")
    colo_p.add_argument("--html", default=None, metavar="PATH",
                        help="also write an HTML dashboard of the run")

    stat_p = sub.add_parser(
        "stat", help="run a workload with metrics armed, print a snapshot"
    )
    _add_machine_args(stat_p)
    _add_workload_args(stat_p)
    stat_p.add_argument("--node", type=int, default=None,
                        help="restrict gauges to one node id (-1 = machine)")
    stat_p.add_argument("--json", action="store_true",
                        help="print the full snapshot as JSON (nothing else)")
    stat_p.add_argument("--prometheus", action="store_true",
                        help="print the Prometheus text exposition")
    stat_p.add_argument("--windows", action="store_true",
                        help="print per-window gauge tables, vmstat -n style")

    report_p = sub.add_parser(
        "report", help="run a workload with metrics armed, write an HTML dashboard"
    )
    _add_machine_args(report_p)
    _add_workload_args(report_p)
    report_p.add_argument("--html", action="store_true",
                          help="emit the HTML dashboard (the default and only "
                               "format; flag kept for forward compatibility)")
    report_p.add_argument("--out", default="REPORT.html",
                          help="output path (default REPORT.html)")
    report_p.add_argument("--sweep", default=None, metavar="PATH",
                          help="SWEEP_report.json to embed "
                               "(default: auto-detect in cwd)")
    report_p.add_argument("--chaos", default=None, metavar="PATH",
                          help="CHAOS_report.json to embed "
                               "(default: auto-detect in cwd)")
    report_p.add_argument("--title", default=None,
                          help="dashboard title (default: workload on policy)")
    report_p.add_argument("--snapshot", default=None, metavar="PATH",
                          help="render a saved metrics snapshot JSON (from "
                               "`repro colo --snapshot` or `repro stat --json`) "
                               "instead of running a workload")

    trace_p = sub.add_parser(
        "trace", help="run a workload with tracepoints armed"
    )
    _add_machine_args(trace_p)
    _add_workload_args(trace_p)
    trace_p.add_argument("--capacity", type=int, default=None,
                         help="ring-buffer capacity per node "
                              "(default 65536; oldest events overwritten)")
    trace_p.add_argument("--events", default=None,
                         help="comma-separated event-name prefixes to keep "
                              "(e.g. mm_migrate,kpromoted)")
    trace_p.add_argument("--tail", type=int, default=0, metavar="N",
                         help="print the last N matching events, trace_pipe style")
    trace_p.add_argument("--no-summary", action="store_true",
                         help="skip the per-event hit table and rate histogram")
    trace_p.add_argument("--ndjson", default=None, metavar="PATH",
                         help="write matching events as NDJSON")
    trace_p.add_argument("--perfetto", default=None, metavar="PATH",
                         help="write matching events as Chrome trace-event JSON")
    trace_p.add_argument("--audit", action="store_true",
                         help="replay the trace against the counters; "
                              "nonzero exit on any mismatch")
    return parser


def _cmd_policies() -> int:
    from repro.policies.base import _REGISTRY

    for name in sorted(_REGISTRY):
        features = _REGISTRY[name].features
        insight = features.key_insight if features else ""
        print(f"{name:>20}  {insight}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    machine = Machine(_build_config(args), args.policy)
    result = run_workload(_build_workload(args), machine.config, machine=machine)
    print(result.summary())
    for node, counts in machine.memory_report().items():
        print(f"  {node}: used {counts['used']}/{counts['capacity']}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    print(EXPERIMENTS[args.name]())
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.workloads.trace import TraceRecorder

    recorder = TraceRecorder(_build_workload(args), args.path)
    result = run_workload(recorder, _build_config(args), policy=args.policy)
    print(result.summary())
    print(f"trace written to {args.path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.workloads.trace import TraceReplayWorkload

    replay = TraceReplayWorkload(args.path)
    result = run_workload(replay, _build_config(args), policy=args.policy)
    print(result.summary())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    results = bench.run_suite(smoke=args.smoke, repeats=args.repeats)
    out = args.out or bench.DEFAULT_OUT
    bench.write_results(results, out)
    print(bench.render(results))
    print(f"results written to {out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    machine = Machine(_build_config(args), args.policy)
    checker = machine.install_invariant_checker(args.interval, strict=args.strict)
    result = run_workload(_build_workload(args), machine.config, machine=machine)
    final = checker.check()
    checks = machine.stats.get("debug_vm.checks")
    violations = machine.stats.get("debug_vm.violations")
    print(result.summary())
    print(f"debug_vm: {checks} sweeps, {violations} violation(s)")
    for violation in final:
        print(f"  {violation}")
    return 1 if violations else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import (
        CapacityLoss,
        CopyFailures,
        FaultPlan,
        render_report,
        run_chaos,
        write_report,
    )
    from repro.faults.chaos import DEFAULT_REPORT

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    workload_names = (
        [w.strip() for w in args.workloads.split(",") if w.strip()]
        if args.workloads
        else [args.workload]
    )
    builders = _workload_builders(args)
    unknown = [w for w in workload_names if w not in builders]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}"
        )
    plan = FaultPlan(
        seed=args.seed,
        events=(
            CopyFailures(start_s=0.002, end_s=30.0, rate=args.fail_rate),
            CapacityLoss(
                start_s=0.01, end_s=0.05, node_id=1,
                frames=max(1, args.pm_pages // 8),
            ),
        ),
    )
    report = run_chaos(
        policies,
        {name: builders[name] for name in workload_names},
        plan,
        _build_config(args),
        check_interval_s=args.interval,
        trace_capacity=args.trace_capacity,
        workers=args.workers,
    )
    out = args.out or DEFAULT_REPORT
    write_report(report, out)
    print(render_report(report))
    print(f"report written to {out}")
    return 0 if report.all_clean else 1


DEFAULT_SWEEP_REPORT = "SWEEP_report.json"


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.run import RunResult
    from repro.sweep import (
        DEFAULT_HEARTBEAT_S,
        DEFAULT_STRAGGLER_FACTOR,
        SweepCell,
        SweepInterrupted,
        SweepSpec,
        build_report,
        parse_hosts,
        run_remote_sweep,
        run_sweep,
        write_report,
    )

    # A bad host list is an operator mistake, reported before any cell
    # (or agent) is started; run_remote_sweep vets the tuning values.
    hosts = parse_hosts(args.hosts, default_workers=args.workers) \
        if args.hosts is not None else None
    if hosts is None and (args.heartbeat_s is not None
                          or args.straggler_factor is not None):
        raise ValueError(
            "--heartbeat-s/--straggler-factor only apply with --hosts"
        )

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    workload_names = (
        [w.strip() for w in args.workloads.split(",") if w.strip()]
        if args.workloads
        else [args.workload]
    )
    unknown = [w for w in workload_names if w not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}"
        )
    try:
        seeds = (
            [int(s.strip()) for s in args.seeds.split(",") if s.strip()]
            if args.seeds
            else [args.seed]
        )
    except ValueError:
        raise ValueError(
            f"invalid --seeds {args.seeds!r}: must be comma-separated integers"
        ) from None

    cells = []
    for policy in policies:
        for workload_name in workload_names:
            for seed in seeds:
                cells.append(
                    SweepCell(
                        id=f"{policy}/{workload_name}/s{seed}",
                        runner="run-workload",
                        params={
                            "policy": policy,
                            "workload": _workload_spec(args, workload_name, seed),
                            "config": {
                                "dram_pages": args.dram_pages,
                                "pm_pages": args.pm_pages,
                                "swap_pages": args.swap_pages,
                                "interval": args.interval,
                                "seed": seed,
                            },
                        },
                    )
                )
    spec = SweepSpec(name="repro-sweep", cells=tuple(cells))
    out = args.out or DEFAULT_SWEEP_REPORT
    manifest = args.manifest or f"{out}.manifest.json"
    cache_dir = (args.cache_dir or f"{out}.cache") if args.cache else None
    note = lambda msg: print(f"  {msg}", file=sys.stderr)  # noqa: E731

    # --journal arms the observability plane: the NDJSON span journal,
    # the live <out>.status.json that `repro top` polls, and the
    # timing/profile sections of the report.  Without it `obs` stays
    # None and the sweep layer builds its null observer, so the report
    # bytes are identical to a journal-off run (CI pins this with cmp).
    obs = None
    journal_path = None
    if args.journal is not None:
        from repro.obs import Journal, StatusBoard, SweepObserver

        journal_path = args.journal or f"{out}.journal.ndjson"
        journal = Journal(journal_path)
        obs = SweepObserver(
            progress=note,
            journal=journal,
            status=StatusBoard(f"{out}.status.json", total=len(cells),
                               spec=spec.name, trace=journal.trace_id),
        )
    try:
        if hosts is not None:
            result = run_remote_sweep(
                spec,
                hosts,
                timeout_s=args.timeout_s,
                max_attempts=args.max_attempts,
                manifest_path=manifest,
                resume=args.resume,
                cache_dir=cache_dir,
                heartbeat_s=(DEFAULT_HEARTBEAT_S if args.heartbeat_s is None
                             else args.heartbeat_s),
                straggler_factor=(DEFAULT_STRAGGLER_FACTOR
                                  if args.straggler_factor is None
                                  else args.straggler_factor),
                connect_timeout_s=args.connect_timeout_s,
                reconnect_attempts=args.reconnect_attempts,
                local_workers=args.workers,
                workers_per_host=args.workers,
                progress=note,
                obs=obs,
            )
        else:
            result = run_sweep(
                spec,
                workers=args.workers,
                timeout_s=args.timeout_s,
                max_attempts=args.max_attempts,
                manifest_path=manifest,
                resume=args.resume,
                cache_dir=cache_dir,
                progress=note,
                obs=obs,
            )
    except (SweepInterrupted, KeyboardInterrupt):
        # The journal gets its synthetic aborted ends and the status
        # file its terminal state even on Ctrl-C — a consumer must
        # never see a journal whose begins lack ends.
        if obs is not None:
            obs.close("interrupted")
        raise

    timing = profile = None
    if obs is not None:
        obs.close("done" if result.ok else "failed")
        from repro.obs import fold_profile, read_journal

        profile = fold_profile(read_journal(journal_path))
        timing = obs.timing_rows()

    report = build_report(
        result,
        grid={
            "policies": policies,
            "workloads": workload_names,
            "seeds": seeds,
        },
        timing=timing,
        profile=profile,
    )
    write_report(report, out)

    if hosts is not None:
        # Per-host outcomes go to a sidecar, never into the report: the
        # report's bytes must stay identical to a sequential sweep's.
        with open(f"{out}.hosts.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "cache_hits": result.cache_hits,
                    "hosts": [h.to_dict() for h in result.host_outcomes],
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        for h in result.host_outcomes:
            extras = []
            if h.reconnects:
                extras.append(f"{h.reconnects} reconnect(s)")
            if h.duplicates_discarded:
                extras.append(f"{h.duplicates_discarded} duplicate(s) discarded")
            if h.error:
                extras.append(h.error)
            detail = f" ({'; '.join(extras)})" if extras else ""
            print(f"  host {h.host}: {h.state}, {h.done} cell(s) done{detail}",
                  file=sys.stderr)
        if all(h.state == "dead" for h in result.host_outcomes):
            print("warning: every sweep host was lost; the sweep finished "
                  "on the local pool", file=sys.stderr)

    for o in result.outcomes:
        if o.ok:
            r = RunResult.from_dict(o.payload)
            print(f"{o.cell.id:>40}  {r.throughput_ops:>12,.0f} ops/s  "
                  f"{100 * r.dram_access_fraction:5.1f}% DRAM")
        else:
            print(f"{o.cell.id:>40}  FAILED: {o.error}")
    if profile is not None:
        from repro.obs import render_profile

        print(render_profile(profile), file=sys.stderr)
        print(f"  journal written to {journal_path}", file=sys.stderr)

    done = sum(1 for o in result.outcomes if o.ok)
    cached = sum(1 for o in result.outcomes if o.cached)
    print(f"{done}/{len(result.outcomes)} cells done "
          f"({cached} cached, {result.spawned_workers} worker(s) spawned); "
          f"report written to {out}")
    return 0 if result.ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs import read_status, render_prometheus, render_top

    path = args.path
    if not path.endswith(".status.json"):
        path = f"{path}.status.json"
    if args.prometheus:
        print(render_prometheus(read_status(path)), end="")
        return 0
    while True:
        status = read_status(path)
        if not args.once and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(render_top(status))
        if args.once or status.get("state") != "running":
            return 0
        time.sleep(max(0.1, args.interval))


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import read_journal, timeline_records
    from repro.trace import write_trace_events

    path = args.journal
    if not path.endswith(".ndjson"):
        path = f"{path}.journal.ndjson"
    events = read_journal(path)
    if not events:
        raise ValueError(
            f"no journal events in {path}; run the sweep with --journal "
            f"(and the same --out) first"
        )
    records, lanes = timeline_records(events)
    out = args.out or f"{path}.trace.json"
    write_trace_events(records, out)
    print(f"{len(records)} trace records across {lanes} lane(s) "
          f"written to {out}")
    return 0


def _parse_limits(raw: str) -> list[int | None]:
    """``--limits none,400,none`` → ``[None, 400, None]``."""
    limits: list[int | None] = []
    for token in raw.split(","):
        token = token.strip().lower()
        if token in ("", "none", "max", "-"):
            limits.append(None)
            continue
        try:
            limits.append(int(token))
        except ValueError:
            raise ValueError(
                f"invalid --limits entry {token!r}: must be an integer page "
                f"count or 'none'"
            ) from None
    return limits


def _cmd_colo(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.colo import render_colo, run_colo

    limits = _parse_limits(args.limits) if args.limits else None
    result = run_colo(
        n_tenants=args.tenants,
        records_per_tenant=args.records,
        ops_per_tenant=args.ops,
        policy=args.policy,
        dram_pages=args.dram_pages,
        pm_pages=args.pm_pages,
        swap_pages=args.swap_pages,
        limits=limits,
        seed=args.seed,
    )
    registry = result["registry"]
    if args.json:
        print(json.dumps(registry.to_json(), indent=2, sort_keys=True))
        return 0
    if args.prometheus:
        sys.stdout.write(registry.to_prometheus())
        return 0
    print(render_colo(result))
    if args.vmstat:
        sys.stdout.write(registry.to_vmstat(None))
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            json.dump(registry.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"snapshot written to {args.snapshot}")
    if args.html:
        from repro.analysis.dashboard import build_dashboard

        html = build_dashboard(
            registry.to_json(), None,
            title=f"colocation: {args.tenants} tenants on {args.policy}",
        )
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(html)
        print(f"dashboard written to {args.html}")
    return 0


def _run_with_metrics(args: argparse.Namespace):
    """Build a machine, arm metrics, drive the workload; returns both."""
    machine = Machine(_build_config(args), args.policy)
    registry = machine.enable_metrics()
    result = run_workload(_build_workload(args), machine.config, machine=machine)
    return machine, registry, result


def _cmd_stat(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import render_table

    _, registry, result = _run_with_metrics(args)
    if args.node is not None and args.node not in registry.gauge_nodes():
        raise ValueError(
            f"unknown node {args.node}; sampled nodes: "
            f"{', '.join(str(n) for n in registry.gauge_nodes())}"
        )
    if args.json:
        snapshot = registry.to_json()
        if args.node is not None:
            node_key = str(args.node)
            for section in ("gauges", "events"):
                snapshot[section] = {
                    name: {node_key: per_node[node_key]}
                    for name, per_node in snapshot[section].items()
                    if node_key in per_node
                }
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    if args.prometheus:
        sys.stdout.write(registry.to_prometheus())
        return 0
    print(result.summary())
    if args.windows:
        snapshot = registry.to_json()
        nodes = (
            [args.node] if args.node is not None
            else sorted(
                {int(n) for per in snapshot["gauges"].values() for n in per}
            )
        )
        for node_id in nodes:
            node_key = str(node_id)
            names = [
                name for name, per in snapshot["gauges"].items()
                if node_key in per
            ]
            if not names:
                continue
            windows: dict[int, dict[str, object]] = {}
            for name in names:
                for point in snapshot["gauges"][name][node_key]["windows"]:
                    row = windows.setdefault(
                        point["window"], {"start_s": point["start_s"]}
                    )
                    row[name] = point["value"]
            rows = [
                [window_id, row["start_s"]]
                + [
                    "-" if row.get(name) is None else f"{row[name]:.1f}"
                    for name in names
                ]
                for window_id, row in sorted(windows.items())
            ]
            label = "machine" if node_id == -1 else f"node {node_id}"
            print(f"\n{label}:")
            print(render_table(["window", "start_s", *names], rows))
        return 0
    sys.stdout.write(registry.to_vmstat(args.node))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.analysis.dashboard import build_dashboard

    def load_report(path: str | None, default: str):
        if path is None:
            path = default if os.path.exists(default) else None
            if path is None:
                return None
        elif not os.path.exists(path):
            raise ValueError(f"report file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    sweep = load_report(args.sweep, DEFAULT_SWEEP_REPORT)
    from repro.faults.chaos import DEFAULT_REPORT as DEFAULT_CHAOS_REPORT

    chaos = load_report(args.chaos, DEFAULT_CHAOS_REPORT)
    if args.snapshot:
        # Saved-snapshot mode: render what a prior run recorded (e.g.
        # `repro colo --snapshot`) instead of driving a workload here.
        if not os.path.exists(args.snapshot):
            raise ValueError(f"snapshot file not found: {args.snapshot}")
        with open(args.snapshot, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        title = args.title or f"saved snapshot: {args.snapshot}"
        html = build_dashboard(
            snapshot, None, sweep=sweep, chaos=chaos, title=title
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(html)
        print(f"dashboard written to {args.out}")
        return 0
    _, registry, result = _run_with_metrics(args)
    title = args.title or f"{result.workload} on {result.policy}"
    html = build_dashboard(
        registry.to_json(), result, sweep=sweep, chaos=chaos, title=title
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(result.summary())
    print(f"dashboard written to {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import (
        audit_machine,
        iter_events,
        render_summary,
        render_tail,
        write_ndjson,
        write_perfetto,
    )

    machine = Machine(_build_config(args), args.policy)
    tracer = machine.enable_tracing(capacity_per_node=args.capacity)
    result = run_workload(_build_workload(args), machine.config, machine=machine)
    print(result.summary())

    prefixes = (
        [p.strip() for p in args.events.split(",") if p.strip()]
        if args.events
        else None
    )
    events = list(iter_events(tracer, prefixes=prefixes))
    if args.ndjson:
        write_ndjson(events, args.ndjson)
        print(f"{len(events)} events written to {args.ndjson}")
    if args.perfetto:
        write_perfetto(events, args.perfetto)
        print(f"{len(events)} events written to {args.perfetto} (perfetto)")
    if args.tail:
        print(render_tail(events, args.tail))
    if not args.no_summary:
        print(render_summary(tracer))
    if args.audit:
        report = audit_machine(machine)
        print(report.render())
        return 0 if report.ok else 1
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "sweep-agent":
        from repro.sweep.remote import agent_main

        return agent_main(workers=args.workers)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "timeline":
        return _cmd_timeline(args)
    if args.command == "colo":
        return _cmd_colo(args)
    if args.command == "stat":
        return _cmd_stat(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    from repro.sweep.pool import SweepInterrupted

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SweepInterrupted as exc:
        # First signal: the sweep already stopped dispatching, flushed
        # the manifest and tore its workers/agents down — one summary
        # line, no traceback.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        # Second signal (or an interrupt outside a sweep): force-killed.
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed early (`repro top --once | grep -q ...`).
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the dead pipe cannot raise a second time, and exit cleanly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OutOfMemoryError as exc:
        # Message already names the failing allocation and per-node occupancy.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: allocation failed: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        # Operator mistakes (unknown policy, impossible sizing, bad plan)
        # get one line on stderr, not a traceback.
        detail = exc.args[0] if exc.args else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
