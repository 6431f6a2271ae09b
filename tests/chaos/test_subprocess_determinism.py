"""Determinism property 3, across process boundaries.

The parallel chaos merge rests on CHAOS_report.json being a pure
function of (plan, matrix, config) — including when the run happens in
a *fresh interpreter* (different hash seed, import order, allocator
state).  This pins that: a subprocess run must produce bytes identical
to an in-process run, and to a second subprocess run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = """
import sys
from repro.faults import FaultPlan, run_chaos, write_report
from repro.faults.plan import CapacityLoss, CopyFailures

plan = FaultPlan(seed=7, events=(
    CopyFailures(start_s=0.0005, end_s=30.0, rate=0.2),
    CapacityLoss(start_s=0.002, end_s=0.008, node_id=1, frames=512),
))
report = run_chaos(
    ["multiclock", "static"],
    [{"kind": "zipf", "pages": 400, "ops": 2500, "seed": 42}],
    plan,
    {"dram_pages": 256, "pm_pages": 2048, "interval": 0.002, "seed": 42},
)
write_report(report, sys.argv[1])
"""


def run_in_fresh_interpreter(out_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out_path)],
        check=True, env=env, timeout=300,
    )


def run_in_this_interpreter(out_path):
    from repro.faults import FaultPlan, run_chaos, write_report
    from repro.faults.plan import CapacityLoss, CopyFailures

    plan = FaultPlan(seed=7, events=(
        CopyFailures(start_s=0.0005, end_s=30.0, rate=0.2),
        CapacityLoss(start_s=0.002, end_s=0.008, node_id=1, frames=512),
    ))
    report = run_chaos(
        ["multiclock", "static"],
        [{"kind": "zipf", "pages": 400, "ops": 2500, "seed": 42}],
        plan,
        {"dram_pages": 256, "pm_pages": 2048, "interval": 0.002, "seed": 42},
    )
    write_report(report, str(out_path))


def test_chaos_report_is_bit_identical_across_interpreters(tmp_path):
    first = tmp_path / "sub1.json"
    second = tmp_path / "sub2.json"
    run_in_fresh_interpreter(first)
    run_in_fresh_interpreter(second)
    assert first.read_bytes() == second.read_bytes()

    # ... and identical to the same matrix (same literals as SCRIPT)
    # run in *this* interpreter.
    local = tmp_path / "local.json"
    run_in_this_interpreter(local)
    assert local.read_bytes() == first.read_bytes()
