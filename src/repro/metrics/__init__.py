"""``/proc/vmstat``-style metrics: gauges, log2 histograms, exposition.

Off by default — a machine carries no registry until
``Machine.enable_metrics()`` installs one, and every instrumentation
site guards on ``None``, so metrics-off runs are bit-identical to a
build without this package (asserted against the recorded baselines).
"""

from repro.metrics.exposition import (
    build_snapshot,
    escape_label_value,
    render_prometheus,
    render_vmstat,
    sanitize_metric_name,
)
from repro.metrics.histogram import Log2Histogram
from repro.metrics.registry import (
    EVENT_NAMES,
    GAUGE_NAMES,
    HISTOGRAM_SPECS,
    MetricsRegistry,
)
from repro.metrics.sampler import SAMPLER_NAME, VmstatSampler

__all__ = [
    "Log2Histogram",
    "MetricsRegistry",
    "VmstatSampler",
    "SAMPLER_NAME",
    "GAUGE_NAMES",
    "EVENT_NAMES",
    "HISTOGRAM_SPECS",
    "render_vmstat",
    "render_prometheus",
    "build_snapshot",
    "sanitize_metric_name",
    "escape_label_value",
]
