"""Analysis utilities: the measurement side of every figure."""

from repro.analysis.compare import (
    PolicyComparison,
    normalize_exec_time,
    normalize_throughput,
)
from repro.analysis.dashboard import build_dashboard
from repro.analysis.heatmap import Heatmap, build_heatmap
from repro.analysis.report import render_bars, render_table
from repro.analysis.svg import bar_chart, format_si, line_chart
from repro.analysis.windows import WindowAnalysis, WindowPairStats, analyze_windows

__all__ = [
    "PolicyComparison",
    "normalize_exec_time",
    "normalize_throughput",
    "Heatmap",
    "build_heatmap",
    "build_dashboard",
    "bar_chart",
    "format_si",
    "line_chart",
    "render_bars",
    "render_table",
    "WindowAnalysis",
    "WindowPairStats",
    "analyze_windows",
]
