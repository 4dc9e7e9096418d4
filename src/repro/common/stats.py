"""Hierarchical statistics counters and distributions.

Every component increments named counters in a shared
:class:`StatsRegistry`; names are dotted paths
(``bus.txn.read``, ``core0.commit.load``).  The registry is the run's
only counter store, and the observability layer's ``RUN_METRICS``
table (``obs/metrics.py``) names each paper counter's key once:
``summarize()`` sums the keys into the figures' fields and
``run_metrics`` exports them as labelled series after the run.

Beyond scalar counters the registry also hosts named
:class:`Histogram` distributions (bucketed, with p50/p95/p99 readouts
— miss latencies, bus queue depths, validate-to-reuse distances),
created on first use via :meth:`StatsRegistry.histogram`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Iterator


def _log2_bounds(limit: float = 2 ** 32) -> tuple[float, ...]:
    """Default power-of-two bucket upper bounds: 1, 2, 4, ... limit."""
    bounds = []
    edge = 1
    while edge <= limit:
        bounds.append(float(edge))
        edge *= 2
    return tuple(bounds)


_DEFAULT_BOUNDS = _log2_bounds()


class Histogram:
    """A bucketed distribution with approximate percentiles.

    ``bounds`` are ascending bucket *upper* edges; values above the
    last edge land in an overflow bucket.  Percentiles interpolate
    linearly within the containing bucket (clamped to the observed
    min/max), so their error is bounded by the bucket width — the
    default power-of-two edges give sub-octave resolution, plenty for
    latency distributions.  Two histograms with identical bounds can be
    merged (used to aggregate per-node distributions system-wide).
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Iterable[float] | None = None):
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else _DEFAULT_BOUNDS
        )
        if any(b >= a for b, a in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (``0 <= p <= 100``)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min if self.min is not None else lo)
                hi = min(hi, self.max if self.max is not None else hi)
                if hi <= lo:
                    return lo
                frac = (rank - cumulative) / bucket_count
                return lo + frac * (hi - lo)
            cumulative += bucket_count
        return self.max or 0.0  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        """Median."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def summary(self) -> dict[str, float]:
        """Headline numbers as a plain JSON-safe dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Histogram(count={self.count} mean={self.mean:.1f})"


class StatsRegistry:
    """A mapping of dotted counter names to integer/float values."""

    def __init__(self):
        self._counters: dict[str, float] = defaultdict(float)
        self._histograms: dict[str, Histogram] = {}
        # Counters a component holds a handle on; see :meth:`counter`.
        self._declared: set[str] = set()

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] += amount

    def set(self, name: str, value: float) -> None:
        """Set counter ``name`` to an absolute value."""
        self._counters[name] = value

    def get(self, name: str, default: float = 0) -> float:
        """Read counter ``name`` (0 if never touched)."""
        return self._counters.get(name, default)

    def __getitem__(self, name: str) -> float:
        return self._counters.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def items(self) -> Iterable[tuple[str, float]]:
        """Iterate over ``(name, value)`` pairs in sorted name order."""
        return sorted(self._counters.items())

    def scoped(self, prefix: str) -> "ScopedStats":
        """Return a view that prepends ``prefix.`` to every counter name."""
        return ScopedStats(self, prefix)

    def counter(self, name: str) -> "CounterHandle":
        """Pre-resolved :class:`CounterHandle` for counter ``name``.

        The name is recorded as :meth:`declared`, but the counter is
        not created: an untouched counter still reads as ``0`` and
        stays out of :meth:`items` and :meth:`snapshot`.
        """
        self._declared.add(name)
        return CounterHandle(self._counters, name)

    def declared(self, name: str) -> bool:
        """True once a component resolved a :meth:`counter` handle for ``name``."""
        return name in self._declared

    def histogram(self, name: str, bounds: Iterable[float] | None = None) -> Histogram:
        """Get (creating on first use) the named :class:`Histogram`.

        Hot paths should call this once at init and keep the returned
        object — it is stable for the registry's lifetime.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds)
        return hist

    def get_histogram(self, name: str) -> Histogram | None:
        """The named histogram, or None if never created."""
        return self._histograms.get(name)

    def histogram_items(self) -> Iterable[tuple[str, Histogram]]:
        """Iterate over ``(name, histogram)`` pairs in name order."""
        return sorted(self._histograms.items())

    def merged_histogram(self, suffix: str) -> Histogram:
        """Merge every histogram whose name ends with ``.suffix``.

        Aggregates per-node distributions (``node3.miss_latency``)
        into one system-wide histogram; exact-name matches also count.
        """
        out = Histogram()
        for name, hist in self._histograms.items():
            if name == suffix or name.endswith("." + suffix):
                out.merge(hist)
        return out

    def snapshot(self) -> dict[str, float]:
        """Return a plain-dict copy of all counters."""
        return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"StatsRegistry({len(self._counters)} counters)"


class CounterHandle:
    """A pre-resolved handle onto one counter in a registry.

    Components that bump the same counter on every event fetch a
    handle once at init (:meth:`ScopedStats.counter`) and call
    :meth:`inc` on the hot path — the dotted name is concatenated
    once, not per increment, making this strictly cheaper than
    :meth:`ScopedStats.add`.
    """

    __slots__ = ("_counters", "_key")

    def __init__(self, counters: dict, key: str):
        self._counters = counters
        self._key = key

    @property
    def name(self) -> str:
        """The full dotted counter name this handle resolves to."""
        return self._key

    def inc(self, amount: float = 1) -> None:
        """Increment the counter by ``amount``."""
        self._counters[self._key] += amount

    @property
    def value(self) -> float:
        """Current counter value (0 if never incremented)."""
        return self._counters.get(self._key, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CounterHandle({self._key!r}={self.value})"


class ScopedStats:
    """A prefix-applying view onto a :class:`StatsRegistry`.

    Counter increments are the single hottest stats operation (every
    commit, transaction, and miss bumps several), so ``add``/``set``/
    ``get`` go straight at the registry's counter dict through a
    cached alias instead of bouncing through a registry method call.
    """

    __slots__ = ("_registry", "_prefix", "_counters")

    def __init__(self, registry: StatsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."
        self._counters = registry._counters

    def add(self, name: str, amount: float = 1) -> None:
        """Increment ``prefix.name`` in the backing registry."""
        self._counters[self._prefix + name] += amount

    def set(self, name: str, value: float) -> None:
        """Set ``prefix.name`` to an absolute value."""
        self._counters[self._prefix + name] = value

    def get(self, name: str, default: float = 0) -> float:
        """Read ``prefix.name`` from the backing registry."""
        return self._counters.get(self._prefix + name, default)

    def counter(self, name: str) -> CounterHandle:
        """Pre-resolved :class:`CounterHandle` for ``prefix.name``."""
        return self._registry.counter(self._prefix + name)

    def histogram(self, name: str, bounds: Iterable[float] | None = None) -> Histogram:
        """Get-or-create ``prefix.name`` histogram in the registry."""
        return self._registry.histogram(self._prefix + name, bounds)

    def scoped(self, prefix: str) -> "ScopedStats":
        """Nest a further prefix under this one."""
        return ScopedStats(self._registry, self._prefix + prefix)
