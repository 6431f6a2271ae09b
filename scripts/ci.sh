#!/usr/bin/env bash
# CI entry point: tier-1 tests, then smoke runs of every CLI surface and
# of the four figbench workloads.  Host-time gates here are ratios of two
# runs on the same host (trace overhead, the sweep pool against the
# sequential loop); performance itself is measured by figbench alone.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# One temp root for every step's scratch directory, removed on any exit.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

echo "== tier-1 tests (total and ten slowest) =="
python -m pytest -x --durations=10

echo "== pagestore smoke (SoA array driver, traced multiclock, every policy with memcg armed and multiclock under a silent fault plan vs recorded baselines; trace overhead) =="
python - <<'PYEOF'
import sys
import time

sys.path.insert(0, "tests")
from baseline_harness import RECORDED, fingerprint

from repro.faults import FaultPlan, PmSlowdown
from repro.machine import Machine

assert fingerprint("autonuma", numeric=True) == RECORDED["autonuma"], \
    "SoA array driver diverged from baseline"
print("SoA array driver is bit-identical to the recorded autonuma baseline")
# MULTI-CLOCK with tracing armed: kpromoted's sweeps and kswapd's hooked
# deactivate emit every tracepoint, and must still steer nothing.
assert fingerprint("multiclock", arm=Machine.enable_tracing, numeric=True) \
    == RECORDED["multiclock"], "traced multiclock diverged from baseline"
print("traced multiclock is bit-identical to the recorded multiclock baseline")
# Memcg armed with no limits only keeps its own books: its hooks sit in
# the fault and migration paths, so every recorded policy must still
# reproduce its baseline exactly.
for policy in sorted(RECORDED):
    assert fingerprint(policy, arm=Machine.enable_memcg, numeric=True) \
        == RECORDED[policy], f"{policy} with memcg armed diverged from baseline"
print(f"all {len(RECORDED)} policies with memcg armed are bit-identical to their baselines")
# A fault plan acts only through its windows: a 1.0x PM slowdown opening
# and closing mid-run changes nothing but the injector's own counters.
silent = FaultPlan(seed=7, events=(
    PmSlowdown(start_s=0.005, end_s=0.015, multiplier=1.0),
))
got = fingerprint("multiclock", arm=lambda m: m.install_faults(silent), numeric=True)
assert got["counters"].pop("faults.windows_opened") == 1
for key in ("copy_failures_injected", "pages_locked", "frames_offlined"):
    assert got["counters"].pop(f"faults.{key}") == 0
assert got == RECORDED["multiclock"], "multiclock under a silent plan diverged from baseline"
print("multiclock under a silent fault plan is bit-identical to the recorded baseline")


def best_of_3(traced):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fingerprint("multiclock", arm=Machine.enable_tracing if traced else None,
                    numeric=True)
        best = min(best, time.perf_counter() - start)
    return best


# Armed tracepoints must stay cheap: host noise is tens of percent, so
# twice the untraced run means the tracing layer itself got expensive.
off_s, on_s = best_of_3(False), best_of_3(True)
assert on_s <= 2.0 * off_s, (
    f"tracing got expensive: traced {on_s:.3f}s > 2x untraced {off_s:.3f}s"
)
print(f"traced multiclock {on_s:.3f}s vs untraced {off_s:.3f}s "
      f"({on_s / off_s:.2f}x, bound 2.0x)")
PYEOF

echo "== chaos smoke (2 policies x 1 workload under faults; 2 workers == 1) =="
CHAOS_ARGS=(--policies multiclock,static --workload zipf
            --pages 600 --ops 4000 --dram-pages 256 --pm-pages 2048
            --interval 0.002)
python -m repro chaos "${CHAOS_ARGS[@]}" --workers 1 \
    --out "$CI_TMP/CHAOS_report.json"
python -m repro chaos "${CHAOS_ARGS[@]}" --workers 2 \
    --out "$CI_TMP/CHAOS_report.2.json" >/dev/null
cmp "$CI_TMP/CHAOS_report.json" "$CI_TMP/CHAOS_report.2.json"

echo "== sweep smoke (2 workers == sequential; unknown policy rejected; forced crash retried) =="
SWEEP_TMP="$CI_TMP/sweep"
mkdir "$SWEEP_TMP"
SWEEP_ARGS=(--policies static,multiclock --workload zipf
            --pages 400 --ops 3000 --dram-pages 128 --pm-pages 1024
            --interval 0.002)
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 \
    --out "$SWEEP_TMP/par.json" >/dev/null 2>&1
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 1 --no-cache \
    --out "$SWEEP_TMP/seq.json" >/dev/null 2>&1
cmp "$SWEEP_TMP/par.json" "$SWEEP_TMP/seq.json"
# An unknown policy is an operator error: exit 2, no report, no worker.
rc=0
python -m repro sweep "${SWEEP_ARGS[@]}" --policies bogus --workers 2 \
    --out "$SWEEP_TMP/bogus.json" 2>/dev/null || rc=$?
test "$rc" -eq 2
test ! -e "$SWEEP_TMP/bogus.json"
echo "unknown policy rejected with exit 2 and no report"
python - "$SWEEP_TMP" <<'PYEOF'
import sys
from repro.sweep import SweepCell, SweepSpec, run_sweep

marker = sys.argv[1] + "/crash.marker"
spec = SweepSpec(name="ci-crash", cells=(
    SweepCell("boom", "flaky",
              {"marker": marker, "mode": "exit", "payload": "recovered"}),
))
result = run_sweep(spec, workers=2)
assert result.ok and result.outcomes[0].attempts == 2, result.outcomes
print("forced worker crash was retried and healed")
PYEOF

echo "== sweep perf smoke (pool's CPU critical path beats sequential; cached re-run is free) =="
python - <<'PYEOF'
import sys

sys.path.insert(0, "scripts")
from sweep_perf import bench_sweep

# The pool is compared with the sequential loop in CPU time: its
# critical path (driver CPU plus the workers' CPU split over the two
# workers it forked) against the loop's own CPU.  Wall time only shows
# the split when the host runs both workers at once; on a 2-vCPU host
# whose workers often share one CPU it was a coin flip.  At this sizing
# the critical path measured 0.47-0.69x of sequential over 10 runs;
# the fork-and-pipe overhead is per worker, so smaller cells erode it.
r = bench_sweep(pages=1500, ops=20_000)
assert r["identical"], f"pool results diverged from sequential: {r}"
assert r["parallel_workers"] == 2, f"pool did not fork its 2 workers: {r}"
assert r["parallel_cpu_s"] <= r["sequential_cpu_s"], (
    f"2-worker pool's CPU critical path longer than sequential: {r}"
)
assert r["cached_rerun_workers"] == 0, (
    f"cached re-run spawned child processes: {r}"
)
assert r["cached_rerun_seconds"] < r["parallel_s"], f"warm cache not faster: {r}"
print(f"pool critical path {r['parallel_cpu_s']}s CPU vs sequential "
      f"{r['sequential_cpu_s']}s CPU; wall {r['parallel_s']}s vs "
      f"{r['sequential_s']}s (speedup {r['speedup']}x); cached re-run "
      f"{r['cached_rerun_seconds']}s with 0 workers spawned")
PYEOF
cp "$SWEEP_TMP/par.json" "$SWEEP_TMP/par.first.json"
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 \
    --out "$SWEEP_TMP/par.json" > "$SWEEP_TMP/rerun.out" 2>/dev/null
grep -q "0 worker(s) spawned" "$SWEEP_TMP/rerun.out"
cmp "$SWEEP_TMP/par.json" "$SWEEP_TMP/par.first.json"
echo "cached CLI re-run: byte-identical report, zero workers spawned"

echo "== observability smoke (journal -> top -> timeline -> byte-identity) =="
OBS_TMP="$CI_TMP/obs"
mkdir "$OBS_TMP"
python -m repro sweep "${SWEEP_ARGS[@]}" --no-cache --workers 2 --journal \
    --out "$OBS_TMP/armed.json" >/dev/null 2>&1
# The armed sweep leaves its report and its journal, and no status
# sidecar: top folds the journal.
test "$(ls "$OBS_TMP")" = "$(printf 'armed.json\narmed.json.journal.ndjson')"
python -m repro top "$OBS_TMP/armed.json" --once | grep -q "done 2"
python -m repro top "$OBS_TMP/armed.json" --prometheus \
    | grep -q 'repro_sweep_cells{state="done"} 2'
python -m repro timeline "$OBS_TMP/armed.json" \
    --out "$OBS_TMP/trace.json" >/dev/null
python - "$OBS_TMP" <<'PYEOF'
import json, sys

tmp = sys.argv[1]
trace = json.load(open(tmp + "/trace.json"))  # perfetto export is JSON
lanes = {r["args"]["name"] for r in trace["traceEvents"]
         if r["name"] == "process_name"}
assert lanes == {"driver", "local pool"}, f"unexpected lanes: {lanes}"
report = json.load(open(tmp + "/armed.json"))
profile = report.pop("profile")
timing = report.pop("timing")
assert profile["coverage"] >= 0.95, profile
assert timing == sorted(timing, key=lambda r: (r["cell"], r["attempt"]))
with open(tmp + "/stripped.json", "w") as fh:
    json.dump(report, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"timeline has {len(lanes)} lanes; profile covers "
      f"{100 * profile['coverage']:.1f}% of measured wall")
PYEOF
cmp "$OBS_TMP/stripped.json" "$SWEEP_TMP/seq.json"
echo "journal-armed report minus timing/profile is byte-identical to journal-off"
# Cached cells count as settled: a fully cached re-run reads 2/2.
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 --journal \
    --out "$OBS_TMP/cached.json" >/dev/null 2>&1
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 --journal \
    --out "$OBS_TMP/cached.json" >/dev/null 2>&1
python -m repro top "$OBS_TMP/cached.json" --once | grep -q "2/2"
echo "fully cached journal-armed re-run: top reads 2/2"

echo "== trace smoke (run -> export -> audit) =="
TRACE_TMP="$CI_TMP/trace"
mkdir "$TRACE_TMP"
python -m repro trace --workload zipf --pages 600 --ops 4000 \
    --dram-pages 256 --pm-pages 2048 --interval 0.002 --no-summary \
    --ndjson "$TRACE_TMP/events.ndjson" --perfetto "$TRACE_TMP/events.json" \
    --audit
test -s "$TRACE_TMP/events.ndjson"

echo "== invariant checker against clean runs (multiclock, nimble's demand demotion, the hint-fault policies that poison, and a memcg limit) =="
for policy in multiclock nimble autotiering-cpm autotiering-opm autonuma; do
    python -m repro check --policy "$policy" --workload shifting-hotset --pages 800 \
        --ops 6000 --dram-pages 256 --pm-pages 2048 --interval 0.002 --strict
done
# The same strict sweeps under a memcg limit: the checker holds every
# targeted-reclaim prefix still keyed to its list's generation equal to
# a fresh tail walk, so a list operation that reorders without moving
# the generation raises here.
python - <<'PYEOF'
from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.multitenant import MultiTenantWorkload
from repro.workloads.synthetic import UniformWorkload, ZipfWorkload

config = SimulationConfig(
    dram_pages=(96,), pm_pages=(512,),
    daemons=DaemonConfig(kpromoted_interval_s=0.002, kswapd_interval_s=0.001,
                         hint_scan_interval_s=0.002),
    seed=7,
)
for policy in ("multiclock", "static"):
    machine = Machine(config, policy)
    memcg = machine.enable_memcg()
    machine.install_invariant_checker(0.01, strict=True)
    workload = MultiTenantWorkload([
        ZipfWorkload(400, 6_000, seed=7, write_ratio=0.2),
        UniformWorkload(300, 4_000, seed=8),
    ])
    workload.setup(machine)
    limited, other = workload.tenants
    memcg.attach(limited.process, memcg.create_group("limited", limit_pages=150))
    memcg.attach(other.process, memcg.create_group("other"))
    machine.touch_batch(workload.blocks())
    reclaimed = machine.stats.get("memcg.pages_reclaimed")
    checks = machine.stats.get("debug_vm.checks")
    assert reclaimed > 0 and checks > 0 and memcg.windows, (policy, reclaimed, checks)
    print(f"{policy} under a memcg limit: {reclaimed} pages reclaimed, "
          f"{checks} strict sweeps clean")
PYEOF

echo "== metrics smoke (stat -> prometheus -> html dashboard) =="
METRICS_TMP="$CI_TMP/metrics"
mkdir "$METRICS_TMP"
METRICS_ARGS=(--workload zipf --pages 600 --ops 4000
              --dram-pages 256 --pm-pages 2048 --interval 0.002)
python -m repro stat "${METRICS_ARGS[@]}" | grep -q node0_nr_free_pages
python -m repro stat "${METRICS_ARGS[@]}" --prometheus \
    | grep -q '^repro_nr_free_pages{node="0",tier="DRAM"}'
python -m repro stat "${METRICS_ARGS[@]}" --json \
    | python -c "import json,sys; s=json.load(sys.stdin); assert s['meta']['samples']>0"
python -m repro report "${METRICS_ARGS[@]}" --html \
    --out "$METRICS_TMP/REPORT.html" >/dev/null
grep -q "<svg" "$METRICS_TMP/REPORT.html"

echo "== colocation smoke (3 tenants, memcg armed, OOM kill + co-tenants survive) =="
COLO_TMP="$CI_TMP/colo"
mkdir "$COLO_TMP"
COLO_ARGS=(--tenants 3 --records 600 --ops 1500
           --dram-pages 96 --pm-pages 300 --swap-pages 16
           --limits none,80,none --seed 7)
# Tight swap pins the limited tenant over its cap at the crunch, so the
# OOM killer selects it; the other two must run to completion.
python -m repro colo "${COLO_ARGS[@]}" --vmstat > "$COLO_TMP/colo.txt"
grep -q "KILLED" "$COLO_TMP/colo.txt"
grep -q "2/3 tenants finished" "$COLO_TMP/colo.txt"
grep -q "1 OOM group kill" "$COLO_TMP/colo.txt"
# p50/p99 reach all four exposition formats: vmstat ...
grep -q "tenant_tenant0_latency_ns_p99" "$COLO_TMP/colo.txt"
# ... Prometheus ...
python -m repro colo "${COLO_ARGS[@]}" --prometheus \
    | grep -q '^repro_tenant_tenant0_latency_ns_p50'
# ... JSON snapshot ...
python -m repro colo "${COLO_ARGS[@]}" \
    --snapshot "$COLO_TMP/colo_snap.json" > /dev/null
python - "$COLO_TMP/colo_snap.json" <<'PYEOF'
import json, sys

snapshot = json.load(open(sys.argv[1]))
hists = snapshot["histograms"]
for tenant in ("tenant0", "tenant2"):  # the survivors
    data = hists[f"tenant_{tenant}_latency_ns"]
    assert data["count"] > 0 and data["p50"] is not None, (tenant, data)
    assert data["p99"] >= data["p50"], (tenant, data)
print("snapshot carries per-tenant p50/p99 for every survivor")
PYEOF
# ... and the HTML dashboard, via the save -> report round trip.
python -m repro report --snapshot "$COLO_TMP/colo_snap.json" \
    --out "$COLO_TMP/colo.html" >/dev/null
grep -q "tenant_tenant0_latency_ns" "$COLO_TMP/colo.html"
grep -q "<svg" "$COLO_TMP/colo.html"
# The same configuration through run_colo's timeslice driver and through
# the per-access reference loop: equal rows, full tenant histograms,
# counters and clock, under MULTI-CLOCK and under AutoTiering-CPM's hint
# faults.
for policy in multiclock autotiering-cpm; do
    python tests/experiments/colo_reference.py --policy "$policy"
done

echo "== GAPBS level emission (BFS and BC columns equal the per-vertex loops at R-MAT scale 12 and 13) =="
# The tier-1 equality test stops at R-MAT scale 10 and the figure runs
# scale 11; deeper, wider frontiers are checked here.
python - <<'PYEOF'
import sys

import numpy as np

sys.path.insert(0, "tests/workloads")
from gapbs_reference import bc_trial_events, bfs_trial_events

from repro.workloads.gapbs import BetweennessCentralityWorkload, BFSWorkload, Graph

for scale in (12, 13):
    for seed in range(3):
        graph = Graph.rmat(scale, seed=seed)
        for cls, reference in ((BFSWorkload, bfs_trial_events),
                               (BetweennessCentralityWorkload, bc_trial_events)):
            workload = cls(graph, trials=2, seed=seed)
            for trial in range(2):
                got = workload.trial_events(trial)
                want = reference(workload, trial)
                assert all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(got[:2], want[:2])), (cls.kernel, scale, seed, trial)
                assert got[2] == want[2]
        print(f"R-MAT scale {scale} seed {seed}: BFS and BC trial columns match")
PYEOF

echo "== GAPBS block replay (six kernels x five policies on one R-MAT scale 12 graph equal fresh-graph runs) =="
# Every run after a kernel's first replays the blocks whose heads' mapped
# masks it recorded.  Each run here, in Fig 6's config (the figure uses
# scale 11) and interleaved with a swap-pressured one whose unmaps make
# the masks diverge, must equal the same run on a fresh graph.
python - <<'PYEOF'
from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads.gapbs import KERNELS, Graph

POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm", "autotiering-opm")
RESULT_ATTRS = ("final_ranks", "final_components", "triangles")


def graph():
    return Graph.rmat(scale=12, edge_factor=8, seed=7)


def run(graph, name, policy, swap):
    """Fig 6's load and trials, or one trial in 95% of the footprint."""
    kernel = KERNELS[name](graph, trials=1 if swap else 3, seed=3)
    footprint = kernel.footprint_pages()
    if swap:
        dram, pm = max(4, int(footprint * 0.2)), int(footprint * 0.75)
    else:
        dram, pm = max(24, int(footprint * 0.4)), footprint * 4
    config = scaled_config(
        dram_pages=dram, pm_pages=pm, interval_s=0.1, scan_budget_pages=64
    )
    machine = Machine(config, policy)
    load = run_workload(kernel.load_workload(), config, machine=machine)
    trials = run_workload(kernel, config, machine=machine)
    return (
        load.to_dict(), trials.to_dict(),
        {attr: getattr(kernel, attr, None) for attr in RESULT_ATTRS},
        machine.system.backing.swap_outs,
    )


for name in sorted(KERNELS):
    shared = graph()
    swapped = 0
    for policy in POLICIES:
        for swap in (False, True):
            got = run(shared, name, policy, swap)
            assert got == run(graph(), name, policy, swap), (name, policy, swap)
            swapped += swap and got[3] > 0
    assert swapped == len(POLICIES), (name, swapped)
    print(f"{name}: 5 policies x (figure, swap-pressured) on one graph match fresh graphs")
PYEOF

echo "== YCSB shared emission (memo-warm sessions equal memo-cleared ones: five policies, Load..D at 20,000 records, and a sorted-store Load+E+C) =="
# Sessions with equal arguments replay the phases the first one recorded.
# Every run on a memo-warm session must equal the same run with the memo
# cleared before its policy, at four times the figure's record count.
python - <<'PYEOF'
from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_workload
from repro.workloads import ycsb
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession

POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm", "autotiering-opm")
RECORDS, OPS = 20_000, 6_000
footprint = YCSBSession(RECORDS).footprint_pages()
config = scaled_config(dram_pages=640, pm_pages=8192, scan_budget_pages=max(96, footprint // 8))


def sequence(policy, backend, phases, cleared):
    """Load then ``phases`` on one machine, as result dicts."""
    if cleared:
        ycsb._MEMO.clear()
    machine = Machine(config, policy)
    session = YCSBSession(RECORDS, value_size=1024, seed=42, backend=backend)
    runs = [session.load_phase()] + [session.phase(name, ops=OPS) for name in phases]
    return [run_workload(run, config, machine=machine).to_dict() for run in runs]


for backend, phases in (("memcached", EXECUTION_SEQUENCE), ("sorted", ("E", "C"))):
    warm = {policy: sequence(policy, backend, phases, cleared=False) for policy in POLICIES}
    for policy in POLICIES:
        assert sequence(policy, backend, phases, cleared=True) == warm[policy], (backend, policy)
    print(f"{backend}: Load+{'+'.join(phases)} under {len(POLICIES)} policies on memo-warm "
          "sessions equals memo-cleared runs")
PYEOF

echo "== figure-path smoke (all four figbench workloads match figbench/reference.json) =="
# Every figbench workload: GAPBS, the KV stores, the sweep grid's numeric
# streams and the colocation tenants.  Every run's digest must match the
# recorded reference, and no run may fail.  colo-memcg, whose
# timeslices cut each tenant's blocks at operation boundaries, is
# checked at three seeds, and so are fig6-gapbs, whose BFS and BC
# emission depends on the graph each seed draws, and fig5-ycsb, whose later policies replay the first
# one's phases; sweep-grid on the column driver at seeds 0 and 3, so a
# change in where the driver meets a fault or a deadline shows at a
# second seed too.
for run in fig6-gapbs:0 fig6-gapbs:3 fig6-gapbs:7 fig5-ycsb:0 fig5-ycsb:3 fig5-ycsb:7 \
        sweep-grid:0 sweep-grid:3 colo-memcg:0 colo-memcg:3 colo-memcg:7; do
    workload="${run%%:*}"
    seed="${run##*:}"
    LAST="$(python3 figbench/run.py --workload "$workload" --seed "$seed" --seconds 1 | tail -n 1)"
    python - "$workload" "$seed" "$LAST" <<'PYEOF'
import json, sys

workload, seed, out = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
assert out["correct"] is True and out["failed"] == 0, (workload, seed, out)
print(f"{workload} seed {seed}: {out['attempted']} runs match the reference, 0 failed")
PYEOF
done

echo "== traced figure smoke (every expected layer span fires; digests still match) =="
# The traced pass wraps each layer and counts a run as failed when a
# span in figbench/layers.py's EXPECTED_SPANS never fires, so a rewrite
# that routes the migration, reclaim or daemon paths around their
# wrappers fails here.  colo-memcg is the one workload that enters the
# memcg charge and targeted-reclaim spans.
for run in sweep-grid:0 fig5-ycsb:0 fig6-gapbs:0 colo-memcg:0; do
    workload="${run%%:*}"
    seed="${run##*:}"
    LAST="$(python3 figbench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 1 | tail -n 1)"
    python - "$workload" "$seed" "$LAST" <<'PYEOF'
import json, sys

workload, seed, out = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
assert out["correct"] is True and out["failed"] == 0, (workload, seed, out)
print(f"{workload} seed {seed} traced: {out['attempted']} runs match, every expected span fired")
PYEOF
done

echo "CI OK"
