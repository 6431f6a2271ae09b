#!/usr/bin/env bash
# CI entry point: tier-1 tests, bench-harness smoke test, then a smoke
# run of the microbenchmarks themselves (writes BENCH_perf.json to a
# scratch path so CI never clobbers the committed full-run results).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== bench harness smoke test =="
python -m pytest benchmarks/perf -q

echo "== repro bench --smoke =="
BENCH_TMP="$(mktemp -d)"
python -m repro bench --smoke --repeats 1 --out "$BENCH_TMP/BENCH_perf.json"

echo "== pagestore smoke (SoA array driver and traced multiclock vs recorded baselines) =="
python - <<'PYEOF'
import json
from repro.machine import Machine
from repro.run import run_numeric_stream
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

recorded = json.load(open("tests/data/baseline_runresults.json"))
config = SimulationConfig(
    dram_pages=(512,), pm_pages=(4096,), swap_pages=1 << 20,
    daemons=DaemonConfig(kpromoted_interval_s=0.002,
                         kswapd_interval_s=0.001,
                         hint_scan_interval_s=0.002),
    seed=7,
)
workload = ZipfWorkload(2000, 20_000, seed=7, write_ratio=0.2)
stream = list(workload.numeric_batches())


def fingerprint(policy, traced=False):
    machine = Machine(config, policy)
    if traced:
        machine.enable_tracing()
    result = run_numeric_stream(workload, config, stream, machine=machine)
    return {
        "operations": result.operations, "accesses": result.accesses,
        "elapsed_ns": result.elapsed_ns, "app_ns": result.app_ns,
        "system_ns": result.system_ns, "ops_fallback": result.ops_fallback,
        "counters": dict(sorted(result.counters.items())),
    }


assert fingerprint("autonuma") == recorded["autonuma"], \
    "SoA array driver diverged from baseline"
print("SoA array driver is bit-identical to the recorded autonuma baseline")
# MULTI-CLOCK with tracing armed: kpromoted's sweeps and kswapd's hooked
# deactivate emit every tracepoint, and must still steer nothing.
assert fingerprint("multiclock", traced=True) == recorded["multiclock"], \
    "traced multiclock diverged from baseline"
print("traced multiclock is bit-identical to the recorded multiclock baseline")
PYEOF

echo "== bench guard (batched touch must not regress below the floor) =="
python - "$BENCH_TMP/BENCH_perf.json" <<'PYEOF'
import json
import sys

# The floor follows the committed full-run BENCH_perf.json: a smoke run
# falling below a tenth of the recorded array-driver rate means the
# vectorized fast path fell off (host noise is tens of percent, not
# 10x).  It never drops below the full-run rate from before the SoA
# vectorized driver landed, which even a smoke run clears.
MIN_FLOOR = 1_455_757
committed = json.load(open("BENCH_perf.json"))["touch"]["batched_ops_per_sec"]
FLOOR = max(MIN_FLOOR, int(committed) // 10)

bench = json.load(open(sys.argv[1]))
touch = bench["touch"]
assert touch["identical"] is True, f"touch drivers diverged: {touch}"
rate = touch["batched_ops_per_sec"]
assert rate >= FLOOR, (
    f"batched touch regressed: {rate:,.0f} ops/s < floor {FLOOR:,} ops/s"
)
print(f"batched touch {rate:,.0f} ops/s >= floor {FLOOR:,} ops/s")

journal = bench["journal"]
assert journal["identical"] is True, f"journal-armed sweep diverged: {journal}"
assert journal["journal_events"] > 0, journal
print(f"span journal is a measured nop: {journal['journal_events']} events, "
      f"overhead {journal['overhead']}x, identical=True")
PYEOF

echo "== chaos smoke (2 policies x 1 workload under faults) =="
python -m repro chaos --policies multiclock,static --workload zipf \
    --pages 600 --ops 4000 --dram-pages 256 --pm-pages 2048 \
    --interval 0.002 --out "$(mktemp -d)/CHAOS_report.json"

echo "== sweep smoke (2 workers == sequential; forced crash retried) =="
SWEEP_TMP="$(mktemp -d)"
SWEEP_ARGS=(--policies static,multiclock --workload zipf
            --pages 400 --ops 3000 --dram-pages 128 --pm-pages 1024
            --interval 0.002)
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 \
    --out "$SWEEP_TMP/par.json" >/dev/null 2>&1
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 1 --no-cache \
    --out "$SWEEP_TMP/seq.json" >/dev/null 2>&1
cmp "$SWEEP_TMP/par.json" "$SWEEP_TMP/seq.json"
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

echo "== sweep perf smoke (pool beats sequential; cached re-run is free) =="
python - <<'PYEOF'
from repro.bench import bench_sweep

# Cells sized so the pool's fork-and-pipe overhead is well below the
# per-cell work; smaller cells made this comparison a coin flip on a
# busy single-core host.
r = bench_sweep(pages=1500, ops=20_000)
assert r["identical"], f"pool results diverged from sequential: {r}"
assert r["parallel_s"] <= r["sequential_s"], (
    f"2-worker pool slower than sequential: {r}"
)
assert r["cached_rerun_workers"] == 0, (
    f"cached re-run spawned child processes: {r}"
)
assert r["cached_rerun_seconds"] < r["parallel_s"], f"warm cache not faster: {r}"
print(f"pool {r['parallel_s']}s vs sequential {r['sequential_s']}s "
      f"(speedup {r['speedup']}x); cached re-run {r['cached_rerun_seconds']}s "
      f"with 0 workers spawned")
PYEOF
cp "$SWEEP_TMP/par.json" "$SWEEP_TMP/par.first.json"
python -m repro sweep "${SWEEP_ARGS[@]}" --workers 2 \
    --out "$SWEEP_TMP/par.json" > "$SWEEP_TMP/rerun.out" 2>/dev/null
grep -q "0 worker(s) spawned" "$SWEEP_TMP/rerun.out"
cmp "$SWEEP_TMP/par.json" "$SWEEP_TMP/par.first.json"
echo "cached CLI re-run: byte-identical report, zero workers spawned"

# Agents run in their own session and are torn down as a process group:
# no sweep-agent process (agent or forked worker) may outlive the
# distributed, kill-agent and observability smokes below.
agent_count() {
    ps -eo args= | grep -c "^[^ ]*python[^ ]* -m repro sweep-agent" || true
}
AGENTS_BEFORE="$(agent_count)"

echo "== distributed sweep smoke (2 loopback agents == sequential) =="
python -m repro sweep "${SWEEP_ARGS[@]}" --no-cache \
    --hosts loopback,loopback --heartbeat-s 1 \
    --out "$SWEEP_TMP/remote.json" >/dev/null 2>&1
cmp "$SWEEP_TMP/remote.json" "$SWEEP_TMP/seq.json"
test -s "$SWEEP_TMP/remote.json.hosts.json"
echo "2-host loopback sweep: byte-identical report, host sidecar written"

echo "== distributed sweep fault smoke (agent killed mid-run heals, journal armed) =="
python - "$(mktemp -d)" <<'PYEOF'
import sys
from repro.obs import (Journal, SweepObserver, pair_spans, read_journal,
                       timeline_records)
from repro.sweep import SweepCell, SweepSpec, run_remote_sweep, run_sweep

tmp = sys.argv[1]
marker = tmp + "/killed.marker"
cells = [
    SweepCell(f"c{i}", "flaky",
              {"mode": "sleep", "sleep_s": 0.05, "payload": f"p{i}"})
    for i in range(8)
]
cells.insert(3, SweepCell("killer", "flaky",
                          {"mode": "kill-agent", "marker": marker,
                           "payload": "recovered"}))
spec = SweepSpec(name="ci-kill-agent", cells=tuple(cells))
sequential = run_sweep(spec, workers=1)
journal_path = tmp + "/sweep.journal.ndjson"
obs = SweepObserver(journal=Journal(journal_path))
remote = run_remote_sweep(spec, "loopback,loopback", heartbeat_s=0.5,
                          reconnect_attempts=2, obs=obs)
obs.close("done")
assert remote.ok, [o.error for o in remote.outcomes if not o.ok]
assert remote.payloads() == sequential.payloads(), "results diverged"

# The journal must tell the same story: the killed host's cell.run span
# and its re-run elsewhere share the cell id, the cell commits once,
# and the merged timeline shows the whole fleet (driver + 2 hosts).
events = read_journal(journal_path)
runs = [s for s in pair_spans(events)
        if s.span == "cell.run" and s.cell == "killer"]
assert len(runs) >= 2 and any(s.aborted for s in runs), runs
commits = [e for e in events if e["ev"] == "point"
           and e["span"] == "commit" and e.get("cell") == "killer"]
assert len(commits) == 1, commits
_, lanes = timeline_records(events)
assert lanes >= 3, f"expected >=3 timeline lanes, got {lanes}"
print("agent SIGKILLed mid-sweep: every cell re-dispatched and completed, "
      "results identical to sequential; journal shows the re-run "
      f"({len(runs)} cell.run spans, 1 commit, {lanes} timeline lanes)")
PYEOF

echo "== observability smoke (journal -> top -> timeline -> byte-identity) =="
OBS_TMP="$(mktemp -d)"
python -m repro sweep "${SWEEP_ARGS[@]}" --no-cache \
    --hosts loopback,loopback --heartbeat-s 1 --journal \
    --out "$OBS_TMP/armed.json" >/dev/null 2>&1
python -m repro top "$OBS_TMP/armed.json" --once | grep -q "done 2"
python -m repro timeline "$OBS_TMP/armed.json" \
    --out "$OBS_TMP/trace.json" >/dev/null
python - "$OBS_TMP" <<'PYEOF'
import json, sys

tmp = sys.argv[1]
trace = json.load(open(tmp + "/trace.json"))  # perfetto export is JSON
lanes = {r["pid"] for r in trace["traceEvents"]}
assert len(lanes) >= 3, f"expected >=3 lanes, got {len(lanes)}"
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

echo "== no sweep-agent process outlives the distributed smokes =="
for _ in $(seq 50); do
    [ "$(agent_count)" -le "$AGENTS_BEFORE" ] && break
    sleep 0.1
done
AGENTS_AFTER="$(agent_count)"
if [ "$AGENTS_AFTER" -gt "$AGENTS_BEFORE" ]; then
    echo "leaked sweep-agent processes: $AGENTS_BEFORE before, $AGENTS_AFTER after" >&2
    exit 1
fi
echo "sweep-agent processes: $AGENTS_BEFORE before the smokes, $AGENTS_AFTER after"

echo "== trace smoke (run -> export -> audit) =="
TRACE_TMP="$(mktemp -d)"
python -m repro trace --workload zipf --pages 600 --ops 4000 \
    --dram-pages 256 --pm-pages 2048 --interval 0.002 --no-summary \
    --ndjson "$TRACE_TMP/events.ndjson" --perfetto "$TRACE_TMP/events.json" \
    --audit
test -s "$TRACE_TMP/events.ndjson"

echo "== invariant checker against a clean run =="
python -m repro check --workload shifting-hotset --pages 800 --ops 6000 \
    --dram-pages 256 --pm-pages 2048 --interval 0.002 --strict

echo "== metrics smoke (stat -> prometheus -> html dashboard -> nop check) =="
METRICS_TMP="$(mktemp -d)"
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
python - <<'PYEOF'
from repro.bench import bench_metrics

result = bench_metrics(20_000, pages=1500, repeats=1)
assert result["identical"], "metrics-armed run diverged from metrics-off"
assert result["samples"] > 0 and result["observations"] > 0, result
print(f"metrics are a measured nop: {result['samples']} samples, "
      f"{result['observations']} observations, identical=True")
PYEOF

echo "== colocation smoke (3 tenants, memcg armed, OOM kill + co-tenants survive) =="
COLO_TMP="$(mktemp -d)"
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

echo "CI OK"
