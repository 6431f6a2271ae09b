"""Cross-policy comparisons: the normalization used by Figures 5-7 and 10.

The paper reports throughput (YCSB) and execution time (GAPBS) normalized
to static tiering.  These helpers take :class:`~repro.run.RunResult`
collections keyed by policy and produce the normalized series plus
human-readable renderings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.run import RunResult

__all__ = ["PolicyComparison", "normalize_throughput", "normalize_exec_time"]


@dataclass(frozen=True)
class PolicyComparison:
    """Normalized metric per policy for one workload."""

    workload: str
    metric: str
    baseline: str
    values: dict[str, float]

    def best(self) -> str:
        """Policy with the highest normalized value."""
        return max(self.values, key=self.values.get)

    def render(self) -> str:
        width = 40
        peak = max(self.values.values())
        lines = [f"{self.workload} — {self.metric} (normalized to {self.baseline})"]
        for policy, value in sorted(self.values.items(), key=lambda kv: -kv[1]):
            bar = "#" * max(1, int(width * value / peak))
            lines.append(f"  {policy:>16} {value:6.3f} {bar}")
        return "\n".join(lines)


def normalize_throughput(
    results: dict[str, RunResult], baseline: str = "static"
) -> PolicyComparison:
    """Fig 5/7a style: ops/sec relative to the baseline (higher = better)."""
    base = results[baseline].throughput_ops
    if base <= 0:
        raise ValueError(f"baseline {baseline!r} had zero throughput")
    values = {policy: result.throughput_ops / base for policy, result in results.items()}
    workload = results[baseline].workload
    return PolicyComparison(workload, "throughput", baseline, values)


def normalize_exec_time(
    results: dict[str, RunResult], baseline: str = "static"
) -> PolicyComparison:
    """Fig 6/7b style: execution time relative to the baseline.

    Values are reported as *normalized execution time* (lower = better),
    matching the paper's Y axis.
    """
    base = results[baseline].elapsed_ns
    if base <= 0:
        raise ValueError(f"baseline {baseline!r} had zero elapsed time")
    values = {policy: result.elapsed_ns / base for policy, result in results.items()}
    workload = results[baseline].workload
    return PolicyComparison(workload, "exec_time", baseline, values)
