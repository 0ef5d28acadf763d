"""Quantile sketch: accuracy bound, merge equivalence, histograms.

Sketch quantiles stay within 2% relative error of exact quantiles on
1e5 observations, ``merge(a, b)`` == observe-all (property-based),
``Histogram`` — a named sketch — answers quantiles monotone in ``q``
and inside the observed range, and ``MetricsRegistry.to_dict()/
from_dict()`` round-trips losslessly.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry, QuantileSketch


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank exact quantile over a sorted sample."""
    rank = min(int(q * (len(sorted_values) - 1)), len(sorted_values) - 1)
    return sorted_values[rank]


# -- accuracy -----------------------------------------------------------------


class TestSketchAccuracy:
    @pytest.mark.parametrize(
        "distribution",
        ["lognormal", "uniform", "exponential", "bimodal"],
    )
    def test_within_two_percent_on_1e5_observations(self, distribution):
        rng = random.Random(42)
        draw = {
            "lognormal": lambda: rng.lognormvariate(0.0, 2.0),
            "uniform": lambda: rng.uniform(0.001, 1000.0),
            "exponential": lambda: rng.expovariate(1 / 50.0),
            "bimodal": lambda: (
                rng.gauss(1.0, 0.1) if rng.random() < 0.5 else rng.gauss(500.0, 20.0)
            ),
        }[distribution]
        sketch = QuantileSketch(relative_accuracy=0.01)
        values = [abs(draw()) + 1e-9 for _ in range(100_000)]
        for value in values:
            sketch.observe(value)
        values.sort()
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
            exact = exact_quantile(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= 0.02 * exact, (q, exact, estimate)

    def test_extremes_are_exact(self):
        sketch = QuantileSketch()
        for value in (3.0, 1.0, 7.5, 2.2):
            sketch.observe(value)
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 7.5
        assert sketch.min == 1.0 and sketch.max == 7.5

    def test_zeros_and_negatives(self):
        sketch = QuantileSketch()
        for value in (-10.0, -1.0, 0.0, 0.0, 1.0, 10.0):
            sketch.observe(value)
        assert sketch.quantile(0.0) == -10.0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == 10.0
        # Negative estimates keep the relative-error bound too.
        low = sketch.quantile(0.2)
        assert abs(low - (-1.0)) <= 0.02 * 1.0

    def test_empty_and_validation(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)

    def test_quantiles_batch_keys(self):
        sketch = QuantileSketch()
        for value in range(1, 101):
            sketch.observe(float(value))
        batch = sketch.quantiles((0.5, 0.95, 0.99))
        assert set(batch) == {"p50", "p95", "p99"}
        assert batch["p50"] <= batch["p95"] <= batch["p99"]


# -- merge --------------------------------------------------------------------


class TestSketchMerge:
    @given(
        left=st.lists(
            st.floats(
                min_value=1e-6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        ),
        right=st.lists(
            st.floats(
                min_value=1e-6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_observe_all(self, left, right):
        merged = QuantileSketch()
        other = QuantileSketch()
        combined = QuantileSketch()
        for value in left:
            merged.observe(value)
            combined.observe(value)
        for value in right:
            other.observe(value)
            combined.observe(value)
        merged.merge(other)
        # Bucket state is identical, so every quantile answer matches
        # exactly (the float running sum may differ in rounding only).
        assert merged.count == combined.count
        assert merged.min == combined.min and merged.max == combined.max
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert merged.quantile(q) == combined.quantile(q)
        state_a = merged.to_dict()
        state_b = combined.to_dict()
        assert state_a["positive"] == state_b["positive"]
        assert state_a["zeros"] == state_b["zeros"]
        assert state_a["sum"] == pytest.approx(state_b["sum"], rel=1e-9, abs=1e-9)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))
        with pytest.raises(TypeError):
            QuantileSketch().merge(object())

    def test_round_trip_preserves_state(self):
        sketch = QuantileSketch(0.02)
        for value in (-3.0, 0.0, 1.5, 200.0):
            sketch.observe(value)
        payload = json.loads(json.dumps(sketch.to_dict()))
        restored = QuantileSketch.from_dict(payload)
        assert restored.to_dict() == sketch.to_dict()
        assert restored.quantile(0.5) == sketch.quantile(0.5)


# -- histogram integration ----------------------------------------------------


class TestHistogramSketchBackend:
    def test_sketch_backend_sharpens_quantiles(self):
        histogram = Histogram("h")
        values = [2.0 + (index % 100) / 100.0 for index in range(1_000)]
        for value in values:  # all inside one decade
            histogram.observe(value)
        exact = sorted(values)[int(0.95 * (len(values) - 1))]
        assert abs(histogram.quantile(0.95) - exact) <= 0.02 * exact
        assert histogram.snapshot()["quantiles"]["p95"] == histogram.quantile(0.95)

    def test_reset_clears_sketch_in_place(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h.latency")
        histogram.observe(5.0)
        registry.reset()
        assert registry.histogram("h.latency") is histogram
        assert histogram.count == 0 and histogram.bucket_bounds() == []
        assert histogram.quantile(0.5) == 0.0

    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        ),
        qs=st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=2,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantiles_are_monotone_in_q(self, values, qs):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        qs.sort()
        estimates = [histogram.quantile(q) for q in qs]
        assert all(a <= b for a, b in zip(estimates, estimates[1:])), (
            qs, estimates,
        )
        assert histogram.min <= estimates[0] and estimates[-1] <= histogram.max


# -- satellite: registry round trip -------------------------------------------


_METRIC_NAMES = st.sampled_from(
    ["layer.a.count", "layer.b.level", "layer.c.seconds", "layer.d.latency"]
)


@st.composite
def _registry_operations(draw):
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["counter", "gauge", "histogram"]),
                _METRIC_NAMES,
                st.floats(
                    min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            max_size=40,
        )
    )
    return operations


class TestRegistryRoundTrip:
    @given(operations=_registry_operations())
    @settings(max_examples=60, deadline=None)
    def test_to_dict_from_dict_is_lossless(self, operations):
        registry = MetricsRegistry()
        for kind, name, value in operations:
            name = f"{kind}.{name}"  # one kind per name: no conflicts
            if kind == "counter":
                registry.counter(name).inc(int(abs(value)))
            elif kind == "gauge":
                registry.gauge(name).set(value)
            else:
                registry.histogram(name).observe(value)
        payload = registry.to_dict()
        # JSON round-trip too: the export path serialises this payload.
        decoded = json.loads(json.dumps(payload))
        restored = MetricsRegistry.from_dict(decoded)
        assert restored.to_dict() == payload
        assert restored.names() == registry.names()
        for name in registry.names():
            original = registry.get(name)
            copy = restored.get(name)
            assert copy.kind == original.kind
            assert copy.snapshot() == original.snapshot()

    def test_sketch_state_survives_the_round_trip(self):
        registry = MetricsRegistry()
        latency = registry.histogram("turns.latency")
        for value in (0.01, 0.02, 0.5, 1.2):
            latency.observe(value)
        restored = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict()))
        )
        copy = restored.get("turns.latency")
        assert isinstance(copy, QuantileSketch)
        assert copy.relative_accuracy == latency.relative_accuracy
        assert copy.quantile(0.5) == latency.quantile(0.5)
        assert restored.to_dict() == registry.to_dict()
