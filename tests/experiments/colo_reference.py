"""The per-access colocation loop: the reference ``run_colo`` is held to.

:func:`run_colo_per_access` runs :func:`~repro.experiments.colo.run_colo`
with its timeslice driver swapped for the obvious loop: each tenant's
``operations()`` in turns of ``TIMESLICE_OPS``, one ``Machine.touch``
per access, each operation's summed charges recorded in the tenant
histogram as it completes, and a ``ProcessKilledError`` ending only the
tenant it was raised for.  Set-up and the report rows are shared, so the
two runs differ only in how the accesses are driven.

Run as a script, it compares the two on one configuration (the
OOM-kill colocation smoke's by default)::

    PYTHONPATH=src python tests/experiments/colo_reference.py \\
        --policy autotiering-cpm
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from unittest import mock

import repro.experiments.colo as colo
from repro.machine import Machine
from repro.mm.memcg import ProcessKilledError
from repro.workloads.multitenant import KVTenantWorkload

#: ``scripts/ci.sh``'s colocation smoke: the limited tenant is OOM-killed.
OOM_KILL = {
    "n_tenants": 3, "records_per_tenant": 600, "ops_per_tenant": 1500,
    "dram_pages": 96, "pm_pages": 300, "swap_pages": 16,
    "limits": [None, 80, None], "seed": 7,
}


def per_access_drive(machine: Machine, tenants: list[KVTenantWorkload]) -> set[str]:
    """The colocation loop with one ``Machine.touch`` per access."""
    registry = machine.system.metrics
    histograms = {t.name: registry.tenant_histogram(t.name) for t in tenants}
    streams = {t.name: t.operations() for t in tenants}
    killed: set[str] = set()
    live = list(tenants)
    while live:
        finished = []
        for tenant in live:
            stream = streams[tenant.name]
            hist = histograms[tenant.name]
            process = tenant.process
            try:
                for __ in range(colo.TIMESLICE_OPS):
                    op = next(stream, None)
                    if op is None:
                        finished.append(tenant)
                        break
                    op_ns = 0
                    for vpage, is_write, lines in op:
                        op_ns += machine.touch(
                            process, vpage, is_write=is_write, lines=lines
                        )
                    hist.record(op_ns)
            except ProcessKilledError:
                killed.add(tenant.name)
                finished.append(tenant)
        for tenant in finished:
            live.remove(tenant)
    return killed


def run_colo_per_access(**kwargs) -> dict:
    """``run_colo(**kwargs)`` driven by :func:`per_access_drive`."""
    with mock.patch.object(colo, "_drive", per_access_drive):
        return colo.run_colo(**kwargs)


def observed(result: dict) -> dict:
    """Everything a colocation run reports: rows, every tenant histogram
    in full, the machine counters and the virtual clock."""
    machine = result["machine"]
    clock = machine.clock
    out = {
        "rows": [dataclasses.asdict(row) for row in result["rows"]],
        "histograms": {
            row.name: result["registry"].tenant_histogram(row.name).to_dict()
            for row in result["rows"]
        },
        "oom_kills": result["oom_kills"],
        "clock": [clock.now_ns, clock.app_ns, clock.system_ns],
        "stats": machine.stats.snapshot(),
    }
    return json.loads(json.dumps(out, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policy", default="multiclock")
    args = parser.parse_args()
    config = {**OOM_KILL, "policy": args.policy}
    expected = observed(run_colo_per_access(**config))
    got = observed(colo.run_colo(**config))
    assert got == expected, f"{args.policy}: run_colo differs from the per-access loop"
    killed = [row["name"] for row in got["rows"] if row["killed"]]
    print(f"{args.policy}: run_colo equals the per-access loop "
          f"(killed: {', '.join(killed) or 'none'})")


if __name__ == "__main__":
    main()
