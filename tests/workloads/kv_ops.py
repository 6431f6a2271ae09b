"""Per-operation view of :func:`repro.workloads.kvstore.touch_columns`."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.workloads.kvstore import touch_columns


class Touch(NamedTuple):
    vpage: int
    write: bool
    lines: int
    probe: bool


def ops(store, kind, keys, scan_lengths=None) -> list[list[Touch]]:
    """Lay out one op per key on ``store`` (``kind`` is one op code or
    one per key) and return each op's touches, in order."""
    keys = np.asarray(keys, dtype=np.int64)
    vpage, write, lines, boundary, probe = touch_columns(
        store,
        np.broadcast_to(np.asarray(kind), keys.shape),
        keys,
        None if scan_lengths is None else np.asarray(scan_lengths, dtype=np.int64),
    )
    rows = [Touch(*row) for row in zip(
        vpage.tolist(), write.tolist(), lines.tolist(), probe.tolist()
    )]
    ends = (np.flatnonzero(boundary) + 1).tolist()
    return [rows[start:end] for start, end in zip([0, *ends], ends)]
