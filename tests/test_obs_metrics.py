"""Tests for the metrics registry: naming, aggregation, snapshots, export."""

import threading

import pytest

from repro.bench.result import Metric
from repro.obs import (
    MetricsRegistry,
    get_metrics,
    metric_key,
    percentile,
    split_metric_key,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestMetricKeys:
    def test_bare_name(self):
        assert metric_key("planner.solve_seconds") == "planner.solve_seconds"

    def test_labels_sorted_by_key(self):
        key = metric_key("service.cache", {"outcome": "hit", "node": 2})
        assert key == "service.cache{node=2,outcome=hit}"

    def test_split_is_the_inverse(self):
        name, labels = split_metric_key("service.cache{node=2,outcome=hit}")
        assert name == "service.cache"
        assert labels == {"node": "2", "outcome": "hit"}
        assert split_metric_key("plain") == ("plain", {})


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_interpolates_between_samples(self):
        ordered = [0.0, 10.0]
        assert percentile(ordered, 0.5) == pytest.approx(5.0)
        assert percentile(ordered, 0.95) == pytest.approx(9.5)

    def test_endpoints_exact(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ordered, 0.0) == 1.0
        assert percentile(ordered, 1.0) == 4.0


class TestRecording:
    def test_counter_accumulates_per_label_set(self, registry):
        registry.inc("service.cache", outcome="hit")
        registry.inc("service.cache", outcome="hit")
        registry.inc("service.cache", outcome="miss")
        assert registry.counter_value("service.cache", outcome="hit") == 2
        assert registry.counter_value("service.cache", outcome="miss") == 1
        assert registry.counter_value("service.cache", outcome="coalesced") == 0

    def test_gauge_keeps_latest(self, registry):
        registry.gauge("service.hit_rate", 0.25)
        registry.gauge("service.hit_rate", 0.75)
        assert registry.gauge_value("service.hit_rate") == 0.75

    def test_histogram_summary(self, registry):
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("planner.solve_seconds", value, stage="allocation")
        summary = registry.histogram_summary(
            "planner.solve_seconds", stage="allocation"
        )
        assert summary.count == 4
        assert summary.total == pytest.approx(10.0)
        assert summary.min == 1.0 and summary.max == 4.0
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5)

    def test_histogram_caps_raw_samples_but_not_aggregates(self):
        registry = MetricsRegistry(max_samples=8)
        for value in range(100):
            registry.observe("x_seconds", float(value))
        summary = registry.histogram_summary("x_seconds")
        assert summary.count == 100
        assert summary.total == pytest.approx(sum(range(100)))
        assert summary.max == 99.0

    def test_invalid_max_samples_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_samples=0)

    def test_thread_safety_of_inc(self, registry):
        def worker() -> None:
            for _ in range(1000):
                registry.inc("hits")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert registry.counter_value("hits") == 4000


class TestSnapshotsAndDiff:
    def test_snapshot_is_frozen(self, registry):
        registry.inc("n")
        snap = registry.snapshot()
        registry.inc("n")
        assert snap.counters["n"] == 1
        assert registry.counter_value("n") == 2

    def test_diff_meters_one_region(self, registry):
        registry.inc("service.cache", 5, outcome="hit")
        registry.observe("simulator.wave_seconds", 1.0)
        before = registry.snapshot()
        registry.inc("service.cache", 2, outcome="hit")
        registry.inc("service.cache", outcome="miss")
        registry.observe("simulator.wave_seconds", 3.0)
        registry.observe("simulator.wave_seconds", 5.0)
        registry.gauge("service.hit_rate", 0.5)
        delta = registry.snapshot().diff(before)
        assert delta.counters == {
            "service.cache{outcome=hit}": 2,
            "service.cache{outcome=miss}": 1,
        }
        wave = delta.histograms["simulator.wave_seconds"]
        assert wave.count == 2
        assert wave.total == pytest.approx(8.0)
        assert wave.mean == pytest.approx(4.0)
        assert delta.gauges["service.hit_rate"] == 0.5

    def test_diff_drops_unchanged_series(self, registry):
        registry.inc("stable")
        registry.observe("h_seconds", 1.0)
        before = registry.snapshot()
        delta = registry.snapshot().diff(before)
        assert delta.counters == {}
        assert delta.histograms == {}

    def test_as_dict_is_json_shaped(self, registry):
        registry.inc("c", outcome="hit")
        registry.gauge("g", 1.5)
        registry.observe("h_seconds", 2.0)
        data = registry.snapshot().as_dict()
        assert data["counters"] == {"c{outcome=hit}": 1.0}
        assert data["gauges"] == {"g": 1.5}
        assert data["histograms"]["h_seconds"]["count"] == 1

    def test_clear(self, registry):
        registry.inc("c")
        registry.gauge("g", 1.0)
        registry.observe("h", 1.0)
        registry.clear()
        snap = registry.snapshot()
        assert not snap.counters and not snap.gauges and not snap.histograms


class TestBenchExport:
    def test_counters_and_gauges_export_values(self, registry):
        registry.inc("service.cache", 3, outcome="hit")
        registry.gauge("service.hit_rate", 0.75)
        metrics = registry.to_bench_metrics()
        assert metrics["service.cache{outcome=hit}"].value == 3
        assert metrics["service.hit_rate"].value == 0.75

    def test_seconds_histograms_export_count_and_percentiles(self, registry):
        registry.observe("planner.solve_seconds", 0.010, stage="allocation")
        registry.observe("planner.solve_seconds", 0.030, stage="allocation")
        metrics = registry.to_bench_metrics(prefix="obs.")
        key = "obs.planner.solve_seconds{stage=allocation}"
        assert metrics[f"{key}.count"].value == 2
        assert metrics[f"{key}.p50_ms"].value == pytest.approx(20.0)
        assert metrics[f"{key}.p95_ms"].unit == "ms"

    def test_diffed_histograms_export_count_without_percentiles(self, registry):
        registry.observe("planner.solve_seconds", 0.010, stage="allocation")
        before = registry.snapshot()
        registry.observe("planner.solve_seconds", 0.030, stage="allocation")
        metrics = registry.to_bench_metrics(snapshot=registry.snapshot().diff(before))
        key = "planner.solve_seconds{stage=allocation}"
        assert metrics[f"{key}.count"].value == 1
        assert not [name for name in metrics if name.endswith("_ms")]

    def test_diff_keeps_only_gauges_set_inside_the_window(self, registry):
        registry.gauge("service.breaker_state", 1.0, shard="0")
        registry.gauge("service.hit_rate", 0.5)
        before = registry.snapshot()
        registry.gauge("service.hit_rate", 0.75)
        registry.gauge("service.queue_depth", 3.0)
        metrics = registry.to_bench_metrics(snapshot=registry.snapshot().diff(before))
        assert metrics["service.hit_rate"].value == 0.75
        assert metrics["service.queue_depth"].value == 3.0
        assert "service.breaker_state{shard=0}" not in metrics

    def test_non_seconds_histograms_export_count_only(self, registry):
        registry.observe("queue.depth", 4.0)
        metrics = registry.to_bench_metrics()
        assert "queue.depth.count" in metrics
        assert "queue.depth.p50_ms" not in metrics

    def test_informational_by_default_gated_on_request(self, registry):
        registry.inc("service.errors")
        default = registry.to_bench_metrics()["service.errors"]
        assert not default.gated
        gated = registry.to_bench_metrics(gated=["service.errors"])
        assert gated["service.errors"].gated
        assert isinstance(gated["service.errors"], Metric)

    def test_to_bench_result_round_trips_schema(self, registry):
        registry.inc("service.requests", 7)
        result = registry.to_bench_result("obs_smoke", figure="fig8")
        payload = result.to_dict()
        assert payload["name"] == "obs_smoke"
        assert payload["metrics"]["service.requests"]["value"] == 7
        assert "obs" in payload["tags"]


class TestRender:
    def test_empty_registry_renders_placeholder(self, registry):
        assert registry.render() == "(no metrics recorded)"

    def test_render_contains_all_sections(self, registry):
        registry.inc("c")
        registry.gauge("g", 2.0)
        registry.observe("h_seconds", 0.5)
        text = registry.render()
        assert "counters:" in text and "gauges:" in text
        assert "histograms:" in text and "h_seconds" in text


class TestConcurrentWriters:
    def test_barrier_synced_workers_keep_exact_aggregates(self):
        """4 workers hammer one histogram + counter through the same barrier.

        Label kwargs arrive in a different order per worker, so the test also
        proves canonicalization under contention: every write lands on the
        same key, and count/total stay exact even past the sample reservoir.
        """
        registry = MetricsRegistry(max_samples=16)
        barrier = threading.Barrier(4)
        per_worker = 500
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for step in range(per_worker):
                    if index % 2 == 0:
                        registry.observe(
                            "solve_seconds", 0.001, stage="alloc", node=1
                        )
                        registry.inc("requests", outcome="hit", tier="cache")
                    else:
                        registry.observe(
                            "solve_seconds", 0.001, node=1, stage="alloc"
                        )
                        registry.inc("requests", tier="cache", outcome="hit")
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors

        snap = registry.snapshot()
        # Canonical label ordering: exactly one series per metric.
        assert list(snap.histograms) == ["solve_seconds{node=1,stage=alloc}"]
        assert list(snap.counters) == ["requests{outcome=hit,tier=cache}"]
        summary = registry.histogram_summary("solve_seconds", stage="alloc", node=1)
        assert summary.count == 4 * per_worker
        assert summary.total == pytest.approx(4 * per_worker * 0.001)
        assert (
            registry.counter_value("requests", outcome="hit", tier="cache")
            == 4 * per_worker
        )


def test_global_registry_is_a_singleton():
    assert get_metrics() is get_metrics()
