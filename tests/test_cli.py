"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_policies_lists_everything(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    for name in ("multiclock", "static", "nimble", "memory-mode"):
        assert name in out


def test_run_prints_summary(capsys):
    code = main([
        "run", "--workload", "zipf", "--pages", "200", "--ops", "500",
        "--policy", "static", "--dram-pages", "128", "--pm-pages", "512",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "zipf on static" in out
    assert "node0/DRAM" in out


def test_experiment_names_cover_every_figure():
    for expected in (
        "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "table1", "table2", "overhead", "ablation-ratio",
        "ablation-dirty", "ablation-adaptive", "ext-workload-e",
        "ext-dual-socket",
    ):
        assert expected in EXPERIMENTS


def test_experiment_table1_runs(capsys):
    assert main(["experiment", "table1"]) == 0
    assert "MULTI-CLOCK" in capsys.readouterr().out


def test_record_and_replay_roundtrip(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    assert main([
        "record", str(trace), "--workload", "uniform", "--pages", "100",
        "--ops", "300", "--policy", "static",
        "--dram-pages", "128", "--pm-pages", "512",
    ]) == 0
    assert trace.exists()
    assert main([
        "replay", str(trace), "--policy", "multiclock",
        "--dram-pages", "128", "--pm-pages", "512",
    ]) == 0
    out = capsys.readouterr().out
    assert "replay[uniform]" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_policy_exits_with_one_line_error(capsys):
    code = main([
        "run", "--policy", "nosuch", "--pages", "100", "--ops", "200",
        "--dram-pages", "128", "--pm-pages", "512",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "nosuch" in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


def test_invalid_sizing_exits_with_one_line_error(capsys):
    code = main([
        "run", "--dram-pages", "0", "--pm-pages", "512",
        "--pages", "100", "--ops", "200",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "positive" in err
    assert err.count("\n") == 1


def test_oom_reports_node_occupancy(capsys):
    """Driving more pages than the machine holds with a full swap must
    end in a one-line OOM report naming the failing nodes, not a crash."""
    code = main([
        "run", "--policy", "static", "--workload", "uniform",
        "--pages", "200", "--ops", "400",
        "--dram-pages", "16", "--pm-pages", "16", "--swap-pages", "8",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:")
    assert "node0/DRAM" in err


def test_check_subcommand_reports_clean_run(capsys):
    code = main([
        "check", "--workload", "zipf", "--pages", "200", "--ops", "1000",
        "--dram-pages", "128", "--pm-pages", "512",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "debug_vm" in out
    assert "0 violation(s)" in out


def test_chaos_subcommand_writes_clean_report(tmp_path, capsys):
    import json

    out_file = tmp_path / "report.json"
    code = main([
        "chaos", "--policies", "static", "--workload", "zipf",
        "--pages", "300", "--ops", "2000",
        "--dram-pages", "128", "--pm-pages", "1024",
        "--out", str(out_file),
    ])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["all_clean"] is True
    assert data["cells"][0]["policy"] == "static"
    assert "chaos verdict: ALL CLEAN" in capsys.readouterr().out


def test_chaos_unknown_workload_one_line_error(capsys):
    code = main(["chaos", "--workloads", "nosuch"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nosuch" in err


@pytest.mark.parametrize("policies, message", [
    ("static,bogus", "error: unknown policy 'bogus'"),
    (",", "error: --policies ',' names no policy"),
])
@pytest.mark.parametrize("command", ["sweep", "chaos"])
def test_matrix_unknown_policy_rejected_before_any_fork(
    tmp_path, capsys, monkeypatch, command, policies, message
):
    """An unknown or empty --policies is one line and exit 2 at any
    worker count: no cell runs, no worker forks, no report is written
    (an empty matrix would otherwise report ALL CLEAN)."""
    from repro.sweep import pool

    forks = []
    monkeypatch.setattr(pool, "_context", lambda: forks.append(command))
    out = tmp_path / "report.json"
    code = main([
        command, "--policies", policies, "--workload", "zipf",
        "--pages", "100", "--ops", "300", "--dram-pages", "64",
        "--pm-pages", "512", "--workers", "2", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert not out.exists()
    assert forks == []


def test_sweep_invalid_sizing_rejected_before_any_fork(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["sweep", "--policies", "static", "--dram-pages", "0",
                 "--no-cache", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: node capacity must be positive")
    assert err.count("\n") == 1
    assert not out.exists()


SWEEP_SIZING = [
    "--policies", "static", "--workload", "zipf", "--pages", "100",
    "--ops", "300", "--dram-pages", "64", "--pm-pages", "512",
]


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_sweep_bad_timeout_one_line_error(tmp_path, capsys, value):
    out = tmp_path / "report.json"
    code = main(["sweep", *SWEEP_SIZING, "--timeout-s", value,
                 "--journal", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--timeout-s" in err
    assert err.count("\n") == 1
    assert not out.exists()
    # The sweep was rejected before it began: the journal holds no span
    # left open, and `top` says no sweep was recorded.
    from repro.obs import read_journal

    assert read_journal(f"{out}.journal.ndjson") == []
    assert main(["top", str(out), "--once"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no sweep recorded")
    assert err.count("\n") == 1


def test_colo_prints_tenant_table(capsys):
    assert main([
        "colo", "--tenants", "2", "--records", "200", "--ops", "500",
        "--limits", "none,60",
    ]) == 0
    out = capsys.readouterr().out
    assert "tenant0" in out and "tenant1" in out
    assert "p50_ns" in out and "p99_ns" in out
    assert "tenants finished" in out


def test_colo_bad_limits_one_line_error(capsys):
    assert main(["colo", "--limits", "12,oops"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "oops" in err
    assert "Traceback" not in err


def test_colo_snapshot_report_roundtrip(tmp_path, capsys):
    snap = tmp_path / "colo_snap.json"
    html = tmp_path / "colo.html"
    out = tmp_path / "report.html"
    assert main([
        "colo", "--tenants", "2", "--records", "200", "--ops", "500",
        "--snapshot", str(snap), "--html", str(html),
    ]) == 0
    capsys.readouterr()
    assert snap.exists() and html.exists()
    assert "tenant_tenant0_latency_ns" in html.read_text()
    assert main([
        "report", "--snapshot", str(snap), "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert "tenant_tenant0_latency_ns" in text
    assert "p50" in text and "p99" in text


def test_report_missing_snapshot_one_line_error(tmp_path, capsys):
    assert main([
        "report", "--snapshot", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "x.html"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.json" in err


def test_experiment_list_includes_colo():
    assert "colo" in EXPERIMENTS
