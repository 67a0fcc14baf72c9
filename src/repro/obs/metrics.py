"""Metrics: named counters, gauges, and histograms with JSONL round-trip.

The registry is the quantitative side of the observability layer: where
the tracer answers *what happened and when*, the registry accumulates
*how much* — kernel launches, fused-level widths, matrix updates,
thread-pool queue depth, effective GFLOPS.  Instruments are get-or-create
by name so call sites never coordinate registration, and every instrument
is thread-safe (threaded backends feed them from worker waves).

Snapshots are plain dicts; :meth:`MetricsRegistry.to_jsonl` /
:meth:`MetricsRegistry.from_jsonl` round-trip the full registry through
one JSON object per line, which is what the CI artifact upload and the
benchmark harness consume.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, IO, List, Optional, Sequence, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _instrumented_lock(prefix: str) -> Any:
    """A (possibly sanitizer-wrapped) lock for one instrument.

    The import is deferred to the call: obs is imported by nearly
    everything, and :mod:`repro.analysis.locksan` must stay downstream
    of it at module-import time (the sanitizer instruments *these*
    locks).  When the sanitizer is off this is a plain ``Lock``.
    """
    from repro.analysis import locksan

    lock = threading.Lock()
    if not locksan.enabled():
        return lock
    return locksan.instrument(lock, locksan.scoped_name(prefix))


class Counter:
    """Monotonically increasing value (float increments allowed)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = _instrumented_lock("metrics.counter")
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, "value": self._value}

    def _restore(self, data: Dict[str, Any]) -> None:
        with self._lock:
            self._value = float(data["value"])

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value:g})"


class Gauge:
    """Last-written value, with min/max watermarks."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = _instrumented_lock("metrics.gauge")
        self._value = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "type": self.kind,
            "value": self._value,
            "min": self._min,
            "max": self._max,
        }

    def _restore(self, data: Dict[str, Any]) -> None:
        with self._lock:
            self._value = float(data["value"])
            self._min = data.get("min")
            self._max = data.get("max")

    def __repr__(self) -> str:
        return (
            f"Gauge({self.name!r}, value={self._value:g}, "
            f"min={self._min}, max={self._max})"
        )


class Histogram:
    """Streaming distribution: count/sum/min/max plus bucket counts.

    ``buckets`` are upper-inclusive bounds; one overflow bucket catches
    everything above the last bound.  The defaults suit the small-integer
    quantities this library observes (level widths, launch batches).
    """

    kind = "histogram"

    DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.buckets = tuple(
            sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS)
        )
        self._lock = _instrumented_lock("metrics.histogram")
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation within the containing bucket, clamped to the
        observed min/max so small-count histograms don't report bucket
        bounds no sample ever reached.  Serving latency gates (p50/p99)
        read this; it is an estimate with bucket-width resolution, not an
        exact order statistic.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]; got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            assert self._min is not None and self._max is not None
            rank = q * self._count
            cumulative = 0
            lower = self._min
            for i, bound in enumerate(self.buckets):
                in_bucket = self._counts[i]
                if cumulative + in_bucket >= rank and in_bucket > 0:
                    frac = (rank - cumulative) / in_bucket
                    upper = min(bound, self._max)
                    lower = max(lower, self._min)
                    return min(max(lower + frac * (upper - lower),
                                   self._min), self._max)
                cumulative += in_bucket
                lower = bound
            return self._max

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": list(self.buckets),
            "bucket_counts": list(self._counts),
        }

    def _restore(self, data: Dict[str, Any]) -> None:
        with self._lock:
            self.buckets = tuple(data["buckets"])
            self._counts = list(data["bucket_counts"])
            self._count = int(data["count"])
            self._sum = float(data["sum"])
            self._min = data.get("min")
            self._max = data.get("max")

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self._count}, "
            f"mean={self.mean:g}, min={self._min}, max={self._max})"
        )


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name."""

    def __init__(self) -> None:
        self._lock = _instrumented_lock("metrics.registry")
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get_or_create(self, name: str, cls, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name, **kwargs)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not Histogram"
                )
            return inst
        return self._get_or_create(
            name, Histogram,
            **({"buckets": buckets} if buckets is not None else {}),
        )

    def get(self, name: str):
        """Look up an instrument without creating it (``None`` if absent)."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshots & serialisation --------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time view: metric name -> its snapshot dict."""
        with self._lock:
            return {
                name: inst.snapshot()
                for name, inst in sorted(self._instruments.items())
            }

    def to_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """One JSON object per metric; returns the metric count."""
        snap = self.snapshot()
        if hasattr(destination, "write"):
            for record in snap.values():
                destination.write(json.dumps(record) + "\n")
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                for record in snap.values():
                    fh.write(json.dumps(record) + "\n")
        return len(snap)

    @classmethod
    def from_jsonl(cls, source: Union[str, IO[str]]) -> "MetricsRegistry":
        """Rebuild a registry whose snapshot equals the exported one."""
        if hasattr(source, "read"):
            lines = source.read().splitlines()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        registry = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            kind = data.get("type")
            if kind == "counter":
                inst = registry.counter(data["name"])
            elif kind == "gauge":
                inst = registry.gauge(data["name"])
            elif kind == "histogram":
                inst = registry.histogram(data["name"])
            else:
                raise ValueError(f"unknown metric type {kind!r}")
            inst._restore(data)
        return registry
