"""One coherent metrics surface for every subsystem counter.

Before this module, operational counters were scattered: byte accounting
lived in :func:`repro.relational.persist.bytes_read_detail`, cache
hit/miss/invalidation counts on
:class:`~repro.discovery.repository.ProfileCache`, streaming-join pruning
ratios on :class:`~repro.relational.join.StreamJoinStats`, and stage timings
on :meth:`~repro.core.results.AugmentationReport.stage_breakdown`.  Each kept
its own ad-hoc ``stats()``/``detail()`` shape, and nothing could serve them
from one endpoint.

:class:`MetricsRegistry` is that one surface.  It holds three kinds of
instrument:

* :class:`Counter` — a monotonically increasing value (``inc``), for request
  and row counts, reloads, errors;
* :class:`Histogram` — streaming count/sum/min/max plus fixed bucket counts
  (``observe``), with quantile estimates interpolated from the buckets — this
  is what latency percentiles are served from;
* **sources** — pull-based callbacks registered with
  :meth:`MetricsRegistry.register_source`.  A source owns its own state and
  is only *read* at :meth:`MetricsRegistry.snapshot` time.  This is how the
  pre-existing subsystem counters joined the registry **without changing
  their return values or call sites**: ``persist`` registers
  ``bytes_read_detail`` as a process-wide source on import, a
  :class:`~repro.discovery.repository.ProfileCache` registers its ``stats``
  via :meth:`~repro.discovery.repository.ProfileCache.register_metrics`, and
  :class:`~repro.core.results.AugmentationReport` /
  :class:`~repro.relational.join.StreamJoinStats` push their figures through
  ``record_metrics`` / ``record_to``.

Everything is thread-safe (one lock per registry, one per instrument);
``snapshot()`` returns a plain-JSON-serialisable dict, which is exactly what
the serving server's ``/metrics`` endpoint emits.

The module-level :func:`get_registry` returns the process-wide default
registry most components register into; independent registries can be
created for isolation (tests, multiple servers in one process).

This module is stdlib-only on purpose — every subsystem may import it
without creating an import cycle.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
]

# upper bounds (seconds) chosen for request latencies: sub-millisecond to
# tens of seconds, roughly x2.5 per step; the trailing +inf bucket is implicit
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

# upper bounds for [0, 1] ratio metrics (recall, precision, uplift fractions):
# a fine-grained top end distinguishes "nearly perfect" from "perfect"
DEFAULT_RATIO_BUCKETS: tuple[float, ...] = (
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    0.95,
    0.99,
    1.0,
)


class Counter:
    """A named, thread-safe, monotonically increasing value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0; counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """Streaming distribution summary: count/sum/min/max plus bucket counts.

    Buckets are cumulative-style upper bounds (like Prometheus ``le``); an
    implicit +inf bucket catches the tail.  :meth:`quantile` interpolates
    linearly within the winning bucket — an estimate whose error is bounded
    by the bucket width, which is the standard trade for O(1) memory under
    concurrent observation.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = name
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {self.name!r}: needs at least one bucket bound")
        self.buckets: tuple[float, ...] = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)  # trailing slot = +inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # the first bound >= value; NaN compares false with every bound, so it
        # goes to the trailing +inf slot
        index = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Returns ``nan`` with no observations.  The estimate interpolates
        within the winning bucket; values beyond the last finite bound are
        clamped to the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return math.nan
            target = q * self._count
            seen = 0
            for i, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= target and bucket_count:
                    if i >= len(self.buckets):
                        return self._max
                    lower = self.buckets[i - 1] if i else min(self._min, self.buckets[i])
                    upper = self.buckets[i]
                    fraction = 1.0 - (seen - target) / bucket_count
                    estimate = lower + (upper - lower) * fraction
                    return min(max(estimate, self._min), self._max)
            return self._max

    def to_dict(self) -> dict:
        """Plain-dict summary (the ``snapshot()`` form)."""
        with self._lock:
            count, total = self._count, self._sum
            counts = list(self._counts)
            minimum = None if count == 0 else self._min
            maximum = None if count == 0 else self._max
        out = {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": (total / count) if count else None,
            "buckets": {str(b): c for b, c in zip(self.buckets, counts)},
            "buckets_inf": counts[-1],
        }
        if count:
            out["p50"] = self.quantile(0.50)
            out["p99"] = self.quantile(0.99)
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Named counters, histograms and pull-based sources, snapshot-to-dict.

    Instruments are created on first request and returned on every subsequent
    call with the same name (get-or-create), so independent subsystems can
    share one instrument by name without coordinating construction order.
    Requesting an existing name as a different instrument kind raises.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, Callable[[], object]] = {}
        self._lock = threading.Lock()
        self._created = time.time()

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            self._check_free(name, allow="counter")
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` only applies on creation; a later call with different
        buckets returns the existing instrument unchanged.
        """
        with self._lock:
            self._check_free(name, allow="histogram")
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, buckets)
            return histogram

    def register_source(self, name: str, fn: Callable[[], object]) -> None:
        """Register a pull-based source evaluated at :meth:`snapshot` time.

        ``fn`` must return a JSON-serialisable value (typically a dict of
        numbers — e.g. ``ProfileCache.stats`` or
        ``persist.bytes_read_detail``).  Re-registering a name replaces the
        previous callback (the common case: a server re-binding to a new
        repository re-registers its cache source).
        """
        with self._lock:
            self._check_free(name, allow="source")
            self._sources[name] = fn

    def unregister_source(self, name: str) -> bool:
        """Drop a source; returns whether it existed."""
        with self._lock:
            return self._sources.pop(name, None) is not None

    def _check_free(self, name: str, allow: str) -> None:
        # caller holds the lock
        kinds = {
            "counter": self._counters,
            "histogram": self._histograms,
            "source": self._sources,
        }
        for kind, table in kinds.items():
            if kind != allow and name in table:
                raise ValueError(
                    f"metric name {name!r} is already registered as a {kind}"
                )

    # -- read side -------------------------------------------------------------

    def snapshot(self) -> dict:
        """One plain dict of everything: counters, histograms, sources.

        Safe against concurrent instrument updates and registrations; a
        source whose callback raises is reported as an ``{"error": ...}``
        entry instead of failing the whole snapshot (a metrics endpoint must
        not go down because one subsystem is mid-teardown).
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            sources = dict(self._sources)
        doc: dict = {
            "uptime_s": time.time() - self._created,
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": {name: h.to_dict() for name, h in sorted(histograms.items())},
        }
        pulled: dict = {}
        for name, fn in sorted(sources.items()):
            try:
                pulled[name] = fn()
            except Exception as exc:
                pulled[name] = {"error": f"{type(exc).__name__}: {exc}"}
        doc["sources"] = pulled
        return doc

    def record_timings(self, prefix: str, timings: Mapping[str, float]) -> None:
        """Observe a ``{stage name -> seconds}`` mapping into histograms.

        Convenience for pushing :meth:`AugmentationReport.stage_breakdown`
        style breakdowns: each key becomes ``{prefix}.{key}``.
        """
        for key, seconds in timings.items():
            self.histogram(f"{prefix}.{key}").observe(float(seconds))

    def reset(self) -> None:
        """Drop every instrument and source (tests and bench isolation)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._sources.clear()
            self._created = time.time()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"histograms={len(self._histograms)}, sources={len(self._sources)})"
            )


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry subsystems register into."""
    return _default_registry
