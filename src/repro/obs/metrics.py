"""Unified metrics registry: counters, gauges, sketch-backed histograms.

Before this module every layer kept bespoke tallies — ``CacheStats`` on
the query cache, ``QueryStats`` on the database, ad-hoc ints on the
session, per-result work counters on the vector indexes — with no single
place to read, reset, or export them.  The registry unifies them under
the ``layer.component.metric`` naming scheme (``sqldb.cache.hits``,
``vector.index.distance_computations``, ``core.session.questions``)
while the original attributes remain as thin views for compatibility.

Design constraints mirror :mod:`repro.obs.trace`:

* **dependency-free** — stdlib only, importable from every layer;
* **global but resettable** — one process-wide default registry
  (:func:`get_registry`); :meth:`MetricsRegistry.reset` zeroes every
  metric *in place*, so handles cached at import time (the hot-path
  pattern) survive test-isolation resets;
* **no numpy in the hot path** — a :class:`Histogram` observation is
  one ``log`` and one dict increment (see :mod:`repro.obs.sketch`).
"""

from __future__ import annotations

from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
]


class Counter:
    """A monotonically increasing tally (resettable to zero)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the tally."""
        self.value += amount

    def reset(self) -> None:
        """Zero the tally in place (handles stay valid)."""
        self.value = 0

    def snapshot(self):
        """The current value (plain int/float for JSON export)."""
        return self.value

    def to_dict(self) -> dict:
        """Full state (lossless, JSON-safe)."""
        return {"kind": "counter", "value": self.value}

    def restore(self, payload: dict) -> None:
        """Inverse of :meth:`to_dict`, in place."""
        self.value = payload["value"]

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level relatively (e.g. open connections)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Inverse of :meth:`inc`."""
        self.value -= amount

    def reset(self) -> None:
        """Zero the gauge in place."""
        self.value = 0.0

    def snapshot(self):
        """The current value."""
        return self.value

    def to_dict(self) -> dict:
        """Full state (lossless, JSON-safe)."""
        return {"kind": "gauge", "value": self.value}

    def restore(self, payload: dict) -> None:
        """Inverse of :meth:`to_dict`, in place."""
        self.value = payload["value"]

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram(QuantileSketch):
    """A named :class:`~repro.obs.sketch.QuantileSketch` at 1% accuracy.

    Observation, quantiles (within 1% relative error at any scale),
    ``count``/``total``/``min``/``max``/``mean`` and in-place ``reset``
    are the sketch's own; this class only adds the registry surface — a
    name, a kind, a summary and a lossless state round-trip.  The fixed
    geometry also gives :func:`repro.obs.export.to_prometheus` stable
    bucket bounds to expose.
    """

    __slots__ = ("name",)

    kind = "histogram"

    def __init__(self, name: str):
        super().__init__(DEFAULT_RELATIVE_ACCURACY)
        self.name = name

    def snapshot(self) -> dict:
        """Summary dict (JSON-ready)."""
        summary = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        if self.count:
            summary["quantiles"] = self.quantiles()
        return summary

    def to_dict(self) -> dict:
        """Full state (lossless, JSON-safe) — unlike :meth:`snapshot`,
        which summarises."""
        return {"kind": "histogram", **super().to_dict()}

    def restore(self, payload: dict) -> None:
        """Inverse of :meth:`to_dict`, in place."""
        self.reset()
        self.merge(QuantileSketch.from_dict(payload))


class MetricsRegistry:
    """Named metrics, created on first use, resettable as a unit.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers, later calls return the same object — which is what lets
    hot paths cache a handle at import time and never pay a lookup again.
    Asking for an existing name as a different kind raises.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, requested as {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get_or_create(name, lambda: Histogram(name), "histogram")

    def get(self, name: str):
        """The metric named ``name``, or None."""
        return self._metrics.get(name)

    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """Name → value for every registered counter.

        Counters (unlike latency histograms) advance deterministically
        with the work performed, so a before/after pair of these dicts is
        the per-turn *work delta* the flight recorder captures and the
        replay harness compares.
        """
        return {
            name: metric.value
            for name, metric in self._metrics.items()
            if metric.kind == "counter" and name.startswith(prefix)
        }

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric *in place* — registrations and cached handles
        survive, which is what test isolation relies on."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self, prefix: str = "") -> dict:
        """Name → value/summary for every metric (optionally filtered by
        name prefix); counters/gauges flatten to scalars, histograms to
        summary dicts.  Sorted for stable JSON diffs."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
            if name.startswith(prefix)
        }

    def to_dict(self) -> dict:
        """Every metric's *full* state, name-keyed and JSON-safe.

        Unlike :meth:`snapshot` (a human summary), this is lossless:
        ``MetricsRegistry.from_dict(r.to_dict())`` reconstructs an
        equivalent registry, and ``from_dict(d).to_dict() == d`` — the
        round-trip the scorecard and exporters rely on to move metrics
        across processes.
        """
        return {
            name: metric.to_dict()
            for name, metric in sorted(self._metrics.items())
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`to_dict` form."""
        registry = cls()
        factories = {
            "counter": registry.counter,
            "gauge": registry.gauge,
            "histogram": registry.histogram,
        }
        for name, state in payload.items():
            factories[state["kind"]](name).restore(state)
        return registry


#: The process-wide default registry every layer reports into.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The global registry (reset it between tests, never replace it)."""
    return _GLOBAL


def counter(name: str) -> Counter:
    """Shorthand for ``get_registry().counter(name)``."""
    return _GLOBAL.counter(name)


def gauge(name: str) -> Gauge:
    """Shorthand for ``get_registry().gauge(name)``."""
    return _GLOBAL.gauge(name)


def histogram(name: str) -> Histogram:
    """Shorthand for ``get_registry().histogram(name)``."""
    return _GLOBAL.histogram(name)
