"""Kernel-style log2 latency histograms.

The kernel's latency instrumentation (``hist_triggers``, BPF's
``log2l()`` maps, the block layer's I/O histograms) buckets nanosecond
durations by the position of the highest set bit, because tail behaviour
is what matters and a handful of power-of-two buckets capture four
orders of magnitude in ~30 integers.  :class:`Log2Histogram` is that
structure: bucket ``i`` covers ``[2**(i-1), 2**i - 1]`` (bucket 0 is the
value 0), kept sparse in a dict so an idle histogram costs nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Log2Histogram"]

#: ``2**i`` for every bucket an int64 can reach: the count of these at or
#: below a value is its ``bit_length``, found without a float rounding.
_POWERS = np.array([1 << i for i in range(63)], dtype=np.int64)


class Log2Histogram:
    """Power-of-two bucketed distribution of non-negative integers.

    Hot paths call :meth:`record` — one ``bit_length`` plus two dict/int
    updates.  ``count``/``total``/``min_value``/``max_value`` give exact
    moments alongside the bucketed shape, so a mean never suffers
    bucketing error even though quantiles do.
    """

    __slots__ = ("name", "help", "unit", "buckets", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name: str, help: str = "", unit: str = "ns") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min_value: int | None = None
        self.max_value: int | None = None

    def record(self, value: int) -> None:
        """Add one observation; ``value`` must be a non-negative integer.

        Zero is a real observation (bucket 0: the ``[0, 0]`` range) and
        updates every exact moment.  The value is coerced through
        ``int`` so numpy scalars off the hot-path columns cannot leak
        into ``total``/``min``/``max`` (where they would wrap at 64 bits
        and break JSON export).
        """
        value = int(value)
        if value < 0:
            raise ValueError(f"histogram {self.name!r} got negative value {value}")
        index = value.bit_length()
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def record_many(self, values) -> None:
        """Add every observation in ``values`` (integers that fit int64).

        Equal to calling :meth:`record` on each in turn: the bucketed
        shape and the exact moments depend only on the multiset.  Raises
        on a negative value before recording any.
        """
        values = np.asarray(values, dtype=np.int64)
        if not len(values):
            return
        low, high = int(values.min()), int(values.max())
        if low < 0:
            raise ValueError(f"histogram {self.name!r} got negative value {low}")
        counts = np.bincount(np.searchsorted(_POWERS, values, side="right"))
        buckets = self.buckets
        for index in counts.nonzero()[0].tolist():
            buckets[index] = buckets.get(index, 0) + int(counts[index])
        self.count += len(values)
        # Python ints: an int64 sum could wrap.
        self.total += sum(values.tolist())
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @staticmethod
    def bucket_upper_bound(index: int) -> int:
        """Inclusive upper bound of bucket ``index`` (0 for bucket 0)."""
        return (1 << index) - 1

    @staticmethod
    def bucket_lower_bound(index: int) -> int:
        """Inclusive lower bound of bucket ``index``."""
        return 0 if index == 0 else 1 << (index - 1)

    def dense_buckets(self) -> list[tuple[int, int]]:
        """``(index, count)`` from bucket 0 to the last occupied bucket."""
        if not self.buckets:
            return []
        last = max(self.buckets)
        return [(i, self.buckets.get(i, 0)) for i in range(last + 1)]

    def cumulative_buckets(self) -> list[tuple[int, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out: list[tuple[int, int]] = []
        running = 0
        for index, count in self.dense_buckets():
            running += count
            out.append((self.bucket_upper_bound(index), running))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (midpoint of the bucket).

        Good enough for a dashboard's p50/p99 annotation; exact values
        would need the raw stream the histogram deliberately discards.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        running = 0
        for index, count in self.dense_buckets():
            running += count
            if running >= rank:
                lo = self.bucket_lower_bound(index)
                hi = self.bucket_upper_bound(index)
                return (lo + hi) / 2
        return float(self.max_value if self.max_value is not None else 0)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready snapshot.

        Quantiles are ``None`` (not NaN) when the histogram is empty so
        the snapshot stays round-trippable through strict JSON.
        """
        return {
            "name": self.name,
            "unit": self.unit,
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.quantile(0.5) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
            "buckets": [
                {"le": self.bucket_upper_bound(i), "count": c}
                for i, c in self.dense_buckets()
            ],
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"Log2Histogram({self.name!r}, count={self.count}, "
            f"buckets={len(self.buckets)})"
        )
