"""Metrics registry: counters, gauges and histograms under canonical names.

The registry is the aggregate half of the observability layer (spans in
:mod:`repro.obs.tracer` are the timeline half).  Metric identity is the pair
of a dotted name and a sorted label set, rendered canonically as
``name{label=value,...}`` — the naming scheme shared across the codebase:

===================================  ======================================
``planner.solve_seconds{stage=...}``  histogram, one observation per planner
                                      pipeline stage per solve
``service.requests`` /
``service.cache{outcome=...}``        counters of plan-service request
                                      outcomes (``hit``/``miss``/
                                      ``coalesced``)
``elastic.replan_seconds{policy=..}`` histogram of measured replan
                                      wall-clock per replan policy
``simulator.wave_seconds``            histogram of *simulated* per-wave
                                      durations
===================================  ======================================

:meth:`MetricsRegistry.snapshot` freezes the current values;
:meth:`MetricsSnapshot.diff` subtracts an earlier snapshot so a caller can
meter exactly one region of work.  :meth:`MetricsRegistry.to_bench_metrics`
exports a snapshot into the benchmark :class:`~repro.bench.result.Metric`
schema, which is how registry values land in ``BENCH_*.json`` via
:class:`~repro.bench.result.BenchResult`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.result import BenchResult, Metric

#: Histograms keep at most this many raw samples for percentile estimation;
#: count/total/min/max stay exact beyond it.
DEFAULT_MAX_SAMPLES = 4096


def metric_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """Canonical ``name{k=v,...}`` rendering with labels sorted by key."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


def percentile(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sample list.

    Well-defined on every sample count: empty lists yield ``0.0`` and a
    single sample is every percentile of itself.
    """
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class HistogramSummary:
    """Point-in-time summary of one histogram."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _Histogram:
    __slots__ = ("count", "total", "min", "max", "samples", "max_samples")

    def __init__(self, max_samples: int) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.samples) < self.max_samples:
            self.samples.append(value)

    def summary(self) -> HistogramSummary:
        if self.count == 0:
            return HistogramSummary()
        ordered = sorted(self.samples)
        return HistogramSummary(
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            mean=self.total / self.count,
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen registry state; subtractable to meter a region of work."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSummary] = field(default_factory=dict)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsDelta":
        """This snapshot minus ``earlier``: counter and histogram count/total
        deltas, plus the gauges set to a new value inside the window (at
        their latest value).  Histogram percentiles are distribution
        properties and do not subtract — a diffed histogram reports delta
        count/total/mean only (min/max/percentiles zeroed), and exports skip
        its percentiles.
        """
        counters = {
            key: value - earlier.counters.get(key, 0.0)
            for key, value in self.counters.items()
            if value != earlier.counters.get(key, 0.0)
        }
        histograms: dict[str, HistogramSummary] = {}
        for key, summary in self.histograms.items():
            before = earlier.histograms.get(key, HistogramSummary())
            count = summary.count - before.count
            if count <= 0:
                continue
            total = summary.total - before.total
            histograms[key] = HistogramSummary(
                count=count, total=total, mean=total / count
            )
        gauges = {
            key: value
            for key, value in self.gauges.items()
            if earlier.gauges.get(key) != value
        }
        return MetricsDelta(counters=counters, gauges=gauges, histograms=histograms)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe rendering (embedded in Chrome trace ``otherData``)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                key: summary.as_dict()
                for key, summary in sorted(self.histograms.items())
            },
        }


@dataclass(frozen=True)
class MetricsDelta(MetricsSnapshot):
    """What changed inside one window (see :meth:`MetricsSnapshot.diff`)."""


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms."""

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -------------------------------------------------------------- recording
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to the counter ``name{labels}`` (creating it at 0)."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}`` to its latest value."""
        with self._lock:
            self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into the histogram ``name{labels}``."""
        key = metric_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = _Histogram(self._max_samples)
                self._histograms[key] = histogram
            histogram.observe(value)

    # --------------------------------------------------------------- reading
    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._gauges.get(metric_key(name, labels), 0.0)

    def histogram_summary(self, name: str, **labels: Any) -> HistogramSummary:
        with self._lock:
            histogram = self._histograms.get(metric_key(name, labels))
            return histogram.summary() if histogram else HistogramSummary()

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: histogram.summary()
                    for key, histogram in self._histograms.items()
                },
            )

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # --------------------------------------------------------------- exports
    def to_bench_metrics(
        self,
        prefix: str = "",
        *,
        snapshot: MetricsSnapshot | None = None,
        gated: Iterable[str] = (),
    ) -> "dict[str, Metric]":
        """Export registry values as benchmark :class:`Metric` entries.

        Counters and gauges export their value; histograms export
        ``<key>.count`` plus (for second-valued names, i.e. names whose base
        ends in ``_seconds``) ``<key>.p50_ms``/``<key>.p95_ms``/``<key>.p99_ms``
        — except in a :class:`MetricsDelta`, whose percentiles are unknown.
        Everything
        defaults to informational — registry values are measurements, not
        gates — except keys listed in ``gated``, which carry the default
        regression threshold.
        """
        from repro.bench.result import Metric, informational

        snap = snapshot if snapshot is not None else self.snapshot()
        gated_keys = set(gated)

        def make(key: str, value: float, unit: str) -> "Metric":
            if key in gated_keys:
                return Metric(value, unit)
            return informational(value, unit)

        metrics: "dict[str, Metric]" = {}
        for key, value in sorted(snap.counters.items()):
            metrics[f"{prefix}{key}"] = make(key, value, "")
        for key, value in sorted(snap.gauges.items()):
            metrics[f"{prefix}{key}"] = make(key, value, "")
        for key, summary in sorted(snap.histograms.items()):
            metrics[f"{prefix}{key}.count"] = make(key, float(summary.count), "")
            base_name, _ = split_metric_key(key)
            if base_name.endswith("_seconds") and not isinstance(snap, MetricsDelta):
                metrics[f"{prefix}{key}.p50_ms"] = informational(
                    summary.p50 * 1e3, "ms"
                )
                metrics[f"{prefix}{key}.p95_ms"] = informational(
                    summary.p95 * 1e3, "ms"
                )
                metrics[f"{prefix}{key}.p99_ms"] = informational(
                    summary.p99 * 1e3, "ms"
                )
        return metrics

    def to_bench_result(
        self,
        name: str,
        *,
        prefix: str = "",
        figure: str | None = None,
        stage: str = "observability",
        tags: tuple[str, ...] = ("obs",),
        snapshot: MetricsSnapshot | None = None,
    ) -> "BenchResult":
        """Wrap :meth:`to_bench_metrics` into a ``BENCH_*.json``-able result."""
        from repro.bench.result import BenchResult

        return BenchResult(
            name=name,
            metrics=self.to_bench_metrics(prefix, snapshot=snapshot),
            figure=figure,
            stage=stage,
            tags=tags,
        )

    # -------------------------------------------------------------- rendering
    def render(self, snapshot: MetricsSnapshot | None = None) -> str:
        """Human-readable multi-section dump of the registry state."""
        snap = snapshot if snapshot is not None else self.snapshot()
        lines: list[str] = []
        if snap.counters:
            lines.append("counters:")
            for key, value in sorted(snap.counters.items()):
                lines.append(f"  {key:<48} {value:g}")
        if snap.gauges:
            lines.append("gauges:")
            for key, value in sorted(snap.gauges.items()):
                lines.append(f"  {key:<48} {value:g}")
        if snap.histograms:
            lines.append("histograms:")
            for key, summary in sorted(snap.histograms.items()):
                lines.append(
                    f"  {key:<48} n={summary.count} mean={summary.mean:.6g} "
                    f"p50={summary.p50:.6g} p95={summary.p95:.6g} "
                    f"p99={summary.p99:.6g} max={summary.max:.6g}"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)


_GLOBAL_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry instrumented components record into."""
    return _GLOBAL_REGISTRY
