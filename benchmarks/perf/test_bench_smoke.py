"""Smoke test for the benchmark harness (not part of tier-1 pytest).

Run with:  PYTHONPATH=src python -m pytest benchmarks/perf -q

Asserts the suite runs end to end, writes well-formed JSON, and that the
batched driver is both correct (bit-identical to the per-access loop)
and meaningfully faster.  The speedup floor here is deliberately below
the full benchmark's >=3x so a noisy CI host doesn't flake; the real
number is recorded in BENCH_perf.json.
"""

from __future__ import annotations

import json

from repro import bench


def test_smoke_suite_writes_results(tmp_path):
    results = bench.run_suite(smoke=True, repeats=1)
    out = tmp_path / "BENCH_perf.json"
    bench.write_results(results, str(out))

    on_disk = json.loads(out.read_text())
    assert on_disk["meta"]["mode"] == "smoke"
    touch = on_disk["touch"]
    assert touch["identical"] is True
    assert touch["per_access_ops_per_sec"] > 0
    assert touch["batched_ops_per_sec"] > 0
    assert touch["speedup"] >= 1.5, "batched driver lost its edge"
    assert on_disk["kpromoted"]["pages_per_sec"] > 0
    assert on_disk["ycsb_a"]["wall_seconds"] > 0
    assert on_disk["ycsb_a"]["accesses"] > 0
    trace = on_disk["trace"]
    # Tracing must not perturb the simulation at all (counters + clocks),
    # and an armed tracer should cost well under 2x even on a noisy host
    # (the recorded full-size number is far lower).
    assert trace["identical"] is True
    assert trace["events_emitted"] > 0
    assert trace["overhead"] < 2.0, "tracepoint layer got expensive"
    sweep = on_disk["sweep"]
    # The pool splits the cells over its two workers, so its CPU critical
    # path must not exceed the naive sequential loop's CPU time; wall
    # time shows the split only when the host runs both workers at once.
    # A warm-cache re-run serves every cell without forking anything.
    assert sweep["identical"] is True
    assert sweep["parallel_workers"] == 2
    assert sweep["parallel_cpu_s"] <= sweep["sequential_cpu_s"], "pool lost to sequential"
    assert sweep["cached_rerun_workers"] == 0
    assert sweep["cached_rerun_seconds"] < sweep["parallel_s"]
