"""Experiments: one module per table/figure of the paper's evaluation.

Each module exposes ``run_*`` (returns structured data) and ``render_*``
(ASCII report) and can be executed directly::

    python -m repro.experiments.fig5_ycsb

The benchmarks under ``benchmarks/`` call the same ``run_*`` entry
points, so the pytest-benchmark suite and the standalone scripts always
agree.
"""

from repro.experiments.common import (
    EVALUATED_POLICIES,
    TIME_SCALE,
    run_ycsb_sequence,
    scale,
    scaled_config,
)

__all__ = [
    "EVALUATED_POLICIES",
    "TIME_SCALE",
    "run_ycsb_sequence",
    "scale",
    "scaled_config",
]
