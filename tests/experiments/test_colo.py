"""The colocation experiment: heterogeneous KV tenants, memcg armed."""

import json

import pytest

from repro.experiments.colo import (
    TENANT_PROFILES,
    build_colo_tenants,
    render_colo,
    run_colo,
)
from repro.mm.debug import check_invariants

SMALL = dict(records_per_tenant=300, ops_per_tenant=900)


def test_tenants_are_heterogeneous():
    tenants = build_colo_tenants(3, 100, 100)
    assert len({t.alpha for t in tenants}) == 3
    assert len({t.phases for t in tenants}) == 3
    assert len({t.seed for t in tenants}) == 3
    # More tenants than profiles cycles the profile table.
    many = build_colo_tenants(len(TENANT_PROFILES) + 1, 100, 100)
    assert many[0].alpha == many[len(TENANT_PROFILES)].alpha
    assert many[0].seed != many[len(TENANT_PROFILES)].seed


def test_run_colo_validation():
    with pytest.raises(ValueError):
        run_colo(n_tenants=0)
    # More limits than tenants is an operator error, not a silent drop.
    with pytest.raises(ValueError):
        run_colo(n_tenants=2, limits=[1, 2, 3], **SMALL)


def test_every_tenant_completes_without_limits():
    result = run_colo(n_tenants=2, **SMALL)
    rows = result["rows"]
    assert len(rows) == 2
    for row in rows:
        assert not row.killed
        # load phase + traffic ops
        assert row.ops_completed == 300 + 900
        assert row.p50_ns is not None and row.p99_ns is not None
        assert row.p99_ns >= row.p50_ns
    assert result["oom_kills"] == 0
    assert check_invariants(result["machine"].system) == []


def test_limit_squeezes_one_tenant():
    result = run_colo(n_tenants=2, limits=[None, 60], **SMALL)
    free, capped = result["rows"]
    assert capped.limit_pages == 60
    assert capped.rss_pages <= 60
    assert capped.swap_pages > 0  # the squeezed footprint went somewhere
    assert free.rss_pages > capped.rss_pages


def test_oom_kill_spares_cotenants():
    result = run_colo(
        n_tenants=3, records_per_tenant=600, ops_per_tenant=1500,
        dram_pages=96, pm_pages=256, swap_pages=64,
    )
    rows = result["rows"]
    killed = [row for row in rows if row.killed]
    survivors = [row for row in rows if not row.killed]
    assert killed, "overcommitted machine must produce an OOM kill"
    assert survivors, "co-tenants must survive the kill"
    assert result["oom_kills"] >= 1
    for row in killed:
        assert row.rss_pages == 0  # fully torn down
    for row in survivors:
        assert row.ops_completed == 600 + 1500  # ran to completion
    assert check_invariants(result["machine"].system) == []


def test_per_tenant_histograms_in_registry():
    result = run_colo(n_tenants=2, **SMALL)
    snapshot = result["registry"].to_json()
    for row in result["rows"]:
        data = snapshot["histograms"][f"tenant_{row.name}_latency_ns"]
        assert data["count"] == row.ops_completed
        assert data["p50"] == row.p50_ns and data["p99"] == row.p99_ns
    json.dumps(snapshot)  # feeds `repro report --snapshot`: must serialise


def test_render_mentions_every_tenant_and_the_verdict():
    result = run_colo(n_tenants=2, limits=[None, 60], **SMALL)
    text = render_colo(result)
    for row in result["rows"]:
        assert row.name in text
    assert "p50_ns" in text and "p99_ns" in text
    assert "tenants finished" in text
