"""Tests for the Chrome trace exporter, validator and text tree report."""

import json

import pytest

from repro.obs import (
    SIM_PID,
    WALL_PID,
    MetricsRegistry,
    SpanRecord,
    SpanTracer,
    TraceValidationError,
    chrome_trace_document,
    render_span_tree,
    span_events,
    spans_from_chrome_trace,
    utilization_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.runtime.trace import UtilizationTrace


def make_span(
    name: str,
    start: float,
    duration: float,
    *,
    thread_id: int = 100,
    thread_name: str = "main",
    span_id: int = 0,
    parent_id: int | None = None,
    depth: int = 0,
    category: str = "test",
    attributes: dict | None = None,
) -> SpanRecord:
    return SpanRecord(
        name=name,
        category=category,
        start=start,
        duration=duration,
        thread_id=thread_id,
        thread_name=thread_name,
        span_id=span_id,
        parent_id=parent_id,
        depth=depth,
        attributes=attributes or {},
    )


@pytest.fixture
def sample_spans():
    return [
        make_span("root", 10.0, 1.0, span_id=0, attributes={"k": "v"}),
        make_span("child", 10.2, 0.3, span_id=1, parent_id=0, depth=1),
        make_span(
            "worker",
            10.1,
            0.5,
            thread_id=200,
            thread_name="plan-worker-0",
            span_id=2,
        ),
    ]


@pytest.fixture
def sim_trace():
    trace = UtilizationTrace(num_devices=2, peak_flops_per_device=100.0)
    trace.add_busy(
        [0], start=0.0, duration=1.0, flops_per_second=50.0, metaop_index=3
    )
    trace.add_busy(
        [1], start=0.5, duration=1.0, flops_per_second=80.0, label="wave0"
    )
    trace.end_time = 2.0
    return trace


class TestSpanEvents:
    def test_empty_spans_yield_no_events(self):
        assert span_events([]) == []

    def test_complete_events_with_relative_microsecond_timestamps(
        self, sample_spans
    ):
        events = span_events(sample_spans)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        root = next(e for e in complete if e["name"] == "root")
        assert root["pid"] == WALL_PID
        assert root["tid"] == 100
        assert root["ts"] == pytest.approx(0.0)  # rebased to earliest span
        assert root["dur"] == pytest.approx(1.0e6)
        assert root["args"] == {"k": "v"}
        child = next(e for e in complete if e["name"] == "child")
        assert child["ts"] == pytest.approx(0.2e6)

    def test_thread_and_process_metadata(self, sample_spans):
        events = span_events(sample_spans)
        metadata = [e for e in events if e["ph"] == "M"]
        names = {
            (e["name"], e.get("tid")): e["args"] for e in metadata
        }
        assert names[("process_name", 0)]["name"] == "wall clock (repro)"
        assert names[("thread_name", 100)]["name"] == "main"
        assert names[("thread_name", 200)]["name"] == "plan-worker-0"

    def test_non_json_attributes_are_stringified(self):
        span = make_span("s", 0.0, 1.0, attributes={"obj": object()})
        events = span_events([span])
        (complete,) = [e for e in events if e["ph"] == "X"]
        assert isinstance(complete["args"]["obj"], str)


class TestUtilizationEvents:
    def test_device_slices_under_simulated_process(self, sim_trace):
        events = utilization_events(sim_trace, num_points=10)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        assert all(e["pid"] == SIM_PID for e in slices)
        labelled = next(e for e in slices if e["tid"] == 1)
        assert labelled["name"] == "wave0"
        unlabelled = next(e for e in slices if e["tid"] == 0)
        assert unlabelled["name"] == "metaop3"
        assert unlabelled["args"]["metaop_index"] == 3

    def test_gpu_thread_names(self, sim_trace):
        events = utilization_events(sim_trace, num_points=10)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {0: "gpu0", 1: "gpu1"}

    def test_counter_tracks_for_flops_and_utilization(self, sim_trace):
        events = utilization_events(sim_trace, num_points=10)
        counters = [e for e in events if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert names == {"cluster.achieved_flops", "cluster.utilization"}
        fractions = [
            e["args"]["fraction"]
            for e in counters
            if e["name"] == "cluster.utilization"
        ]
        assert fractions and all(0.0 <= f <= 1.0 for f in fractions)


class TestDocumentAndValidation:
    def test_document_assembles_all_sections(self, sample_spans, sim_trace):
        registry = MetricsRegistry()
        registry.inc("service.cache", outcome="hit")
        document = chrome_trace_document(
            sample_spans,
            utilization=sim_trace,
            metrics=registry.snapshot(),
            metadata={"workload": "test"},
            num_points=10,
        )
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["generator"] == "repro.obs"
        assert document["otherData"]["workload"] == "test"
        assert (
            document["otherData"]["metrics"]["counters"]["service.cache{outcome=hit}"]
            == 1.0
        )
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"X", "M", "C"}
        assert validate_chrome_trace(document) == len(document["traceEvents"])

    def test_document_is_json_serializable(self, sample_spans, sim_trace):
        document = chrome_trace_document(
            sample_spans, utilization=sim_trace, num_points=10
        )
        round_tripped = json.loads(json.dumps(document))
        assert validate_chrome_trace(round_tripped) == len(
            document["traceEvents"]
        )

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "must be a JSON object"),
            ({"traceEvents": {}}, "'traceEvents' must be a list"),
            ({"traceEvents": ["nope"]}, "must be an object"),
            ({"traceEvents": [{"ph": "Z"}]}, "unknown or missing phase"),
            ({"traceEvents": [{"ph": "X", "name": "a"}]}, "requires"),
            (
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "name": "a",
                            "ts": -1.0,
                            "dur": 1.0,
                            "pid": 1,
                            "tid": 1,
                        }
                    ]
                },
                "non-negative",
            ),
            (
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "name": "a",
                            "ts": "soon",
                            "dur": 1.0,
                            "pid": 1,
                            "tid": 1,
                        }
                    ]
                },
                "must be numeric",
            ),
            (
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "name": 7,
                            "ts": 0.0,
                            "dur": 1.0,
                            "pid": 1,
                            "tid": 1,
                        }
                    ]
                },
                "'name' must be a string",
            ),
        ],
    )
    def test_validator_rejects_malformed_documents(self, document, message):
        with pytest.raises(TraceValidationError, match=message):
            validate_chrome_trace(document)

    def test_validator_caps_reported_errors(self):
        events = [{"ph": "Z"} for _ in range(50)]
        with pytest.raises(TraceValidationError, match="suppressed"):
            validate_chrome_trace({"traceEvents": events}, max_errors=5)

    def test_write_refuses_invalid_document(self, tmp_path):
        with pytest.raises(TraceValidationError):
            write_chrome_trace(tmp_path / "bad.json", {"traceEvents": {}})
        assert not (tmp_path / "bad.json").exists()

    def test_write_and_reload(self, tmp_path, sample_spans):
        document = chrome_trace_document(sample_spans)
        path = write_chrome_trace(tmp_path / "nested" / "trace.json", document)
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == len(document["traceEvents"])


class TestRoundTrip:
    def test_spans_survive_export_and_reimport(self, sample_spans):
        document = chrome_trace_document(sample_spans)
        restored = spans_from_chrome_trace(document)
        assert {s.name for s in restored} == {"root", "child", "worker"}
        by_name = {s.name: s for s in restored}
        assert by_name["root"].duration == pytest.approx(1.0)
        assert by_name["root"].attributes == {"k": "v"}
        assert by_name["worker"].thread_name == "plan-worker-0"

    def test_simulated_threads_prefixed(self, sample_spans, sim_trace):
        document = chrome_trace_document(
            sample_spans, utilization=sim_trace, num_points=10
        )
        restored = spans_from_chrome_trace(document)
        sim_names = {s.thread_name for s in restored if s.thread_name.startswith("sim:")}
        assert sim_names == {"sim:gpu0", "sim:gpu1"}


class TestTreeReport:
    def test_empty_report(self):
        assert render_span_tree([]) == "(no spans recorded)"

    def test_nesting_and_percentages(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("half"):
                pass
        report = render_span_tree(tracer.records())
        lines = report.splitlines()
        assert lines[0].startswith("[MainThread]")
        assert lines[1].lstrip().startswith("root")
        assert lines[2].startswith("  half")  # indented child
        assert "%" in lines[2] and "%" not in lines[1]

    def test_threads_render_as_separate_sections(self, sample_spans):
        report = render_span_tree(sample_spans)
        assert "[main]" in report
        assert "[plan-worker-0]" in report
        main_section = report.index("[main]")
        assert report.index("root", main_section) < report.index("worker")

    def test_min_fraction_prunes_short_spans(self):
        spans = [
            make_span("root", 0.0, 1.0, span_id=0),
            make_span("tiny", 0.1, 0.001, span_id=1, parent_id=0, depth=1),
            make_span("big", 0.2, 0.5, span_id=2, parent_id=0, depth=1),
        ]
        report = render_span_tree(spans, min_fraction=0.01)
        assert "big" in report and "tiny" not in report
