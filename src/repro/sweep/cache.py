"""The sweep's checkpoint: a content-addressed result cache.

:class:`ResultCache` memoizes each finished cell's payload under its
*content fingerprint* (:func:`~repro.sweep.spec.cell_fingerprint`: a
digest of runner + params, independent of grid name or cell id).  It is
the only record of what a sweep has finished: a re-run of an unchanged
cell returns its cached payload without spawning any work, so an
interrupted sweep resumes by running the same command again, and an
incremental re-sweep of a large grid is nearly free.  Entries are
written atomically by the *parent* after a cell's payload is harvested
— a worker dying mid-cell (crash, OOM kill, timeout, operator signal)
never leaves a partial entry — and a corrupted or truncated entry reads
as a miss, never an abort.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

__all__ = ["ResultCache", "atomic_write_json"]


def atomic_write_json(path: str, blob: Any) -> None:
    """Write ``blob`` as sorted JSON via a private temp file + ``os.replace``.

    This is how result cache entries are written, so a concurrent reader
    (another sweep over the same cache) always sees a complete entry or
    none, never a torn one.  Each writer gets its own temp file in the
    target's directory, so two processes writing one path (two sweeps
    finishing a common cell) never rename each other's file away.
    """
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed payload store: one JSON file per cell fingerprint.

    Only *successful* payloads are stored — failures always re-run.
    ``load`` validates that the entry parses and that its recorded
    fingerprint matches the requested key, so a corrupted, truncated or
    hand-edited file degrades to a cache miss (the cell runs live)
    instead of poisoning a sweep.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> dict[str, Any] | None:
        """The cached entry for ``key``, or None on miss/corruption."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("fingerprint") != key:
            return None
        if "payload" not in entry:
            return None
        return entry

    def store(
        self, key: str, *, cell_id: str, attempts: int, payload: Any
    ) -> None:
        """Atomically persist a completed cell's payload under ``key``."""
        entry = {
            "fingerprint": key,
            "cell_id": cell_id,
            "attempts": attempts,
            "payload": payload,
        }
        atomic_write_json(self._path(key), entry)
