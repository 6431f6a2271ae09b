"""The experiment-layer wiring: run_chaos and CLI sweeps produce
results that do not depend on the worker count."""

import json

from repro.cli import main as cli_main
from repro.faults import FaultPlan, run_chaos, write_report
from repro.faults.plan import CapacityLoss, CopyFailures


def chaos_fixture():
    config = {"dram_pages": 256, "pm_pages": 2048, "interval": 0.002, "seed": 42}
    plan = FaultPlan(seed=42, events=(
        CopyFailures(start_s=0.0005, end_s=30.0, rate=0.2),
        CapacityLoss(start_s=0.002, end_s=0.008, node_id=1, frames=512),
    ))
    workloads = [{"kind": "zipf", "pages": 400, "ops": 2500, "seed": 42}]
    return config, plan, workloads


def test_run_chaos_parallel_report_is_bit_identical(tmp_path):
    config, plan, workloads = chaos_fixture()
    policies = ["multiclock", "static"]
    one = run_chaos(policies, workloads, plan, config)
    two = run_chaos(policies, workloads, plan, config, workers=2)
    one_path, two_path = tmp_path / "one.json", tmp_path / "two.json"
    write_report(one, str(one_path))
    write_report(two, str(two_path))
    assert one_path.read_bytes() == two_path.read_bytes()


def test_run_chaos_never_aborts_on_a_dead_worker():
    """A cell that fails every attempt (here: an unknown policy raising
    before the chaos runner's own try/except arms) must surface as an
    uncompleted cell, not abort the sweep, at any worker count."""
    config, plan, workloads = chaos_fixture()
    for workers in (1, 2):
        report = run_chaos(["static", "no-such-policy"], workloads, plan, config,
                           workers=workers)
        by_policy = {cell.policy: cell for cell in report.cells}
        assert by_policy["static"].completed
        dead = by_policy["no-such-policy"]
        assert not dead.completed
        assert "sweep worker failed" in dead.error
        assert not report.all_clean


def sweep_argv(workers, out, pages="300", ops="2000"):
    return [
        "sweep",
        "--policies", "static,multiclock",
        "--workload", "zipf",
        "--pages", pages, "--ops", ops,
        "--dram-pages", "128", "--pm-pages", "1024",
        "--interval", "0.002",
        "--workers", str(workers),
        "--out", out,
    ]


def test_cli_sweep_report_bytes_do_not_depend_on_workers(tmp_path, capsys):
    seq_out = str(tmp_path / "seq.json")
    par_out = str(tmp_path / "par.json")
    assert cli_main(sweep_argv(1, seq_out)) == 0
    assert cli_main(sweep_argv(2, par_out)) == 0
    seq_bytes = open(seq_out, "rb").read()
    par_bytes = open(par_out, "rb").read()
    assert seq_bytes == par_bytes
    report = json.loads(seq_bytes)
    assert [c["id"] for c in report["cells"]] == [
        "static/zipf/s42", "multiclock/zipf/s42",
    ]
    assert all(c["status"] == "done" for c in report["cells"])


def test_cli_sweep_rerun_is_served_from_the_cache(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    argv = sweep_argv(2, out)
    assert cli_main(argv) == 0
    first = open(out, "rb").read()
    capsys.readouterr()
    assert cli_main(argv) == 0
    assert open(out, "rb").read() == first
    captured = capsys.readouterr()
    assert "static/zipf/s42: cache hit (" in captured.err
    assert "multiclock/zipf/s42: cache hit (" in captured.err
    assert "0 worker(s) spawned" in captured.out


def test_cli_sweep_rejects_unknown_workload(tmp_path, capsys):
    rc = cli_main([
        "sweep", "--workloads", "zipf,warpspeed",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert "error: unknown workload(s) warpspeed" in capsys.readouterr().err


def test_cli_sweep_rejects_malformed_seeds(tmp_path, capsys):
    rc = cli_main([
        "sweep", "--seeds", "1,two",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert "error: invalid --seeds" in capsys.readouterr().err
