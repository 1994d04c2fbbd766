"""Unit tests for utilization traces."""

import random

import pytest

from repro.runtime.trace import TraceSegment, UtilizationTrace


class TestTraceSegment:
    def test_duration_and_flops(self):
        seg = TraceSegment(device_id=0, start=1.0, end=3.0, flops_per_second=5.0)
        assert seg.duration == 2.0
        assert seg.flops == 10.0

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            TraceSegment(device_id=0, start=2.0, end=1.0, flops_per_second=1.0)
        with pytest.raises(ValueError):
            TraceSegment(device_id=0, start=0.0, end=1.0, flops_per_second=-1.0)


class TestUtilizationTrace:
    @pytest.fixture
    def trace(self):
        trace = UtilizationTrace(num_devices=2, peak_flops_per_device=100.0)
        trace.add_busy([0], start=0.0, duration=1.0, flops_per_second=50.0, metaop_index=0)
        trace.add_busy([0], start=1.0, duration=1.0, flops_per_second=100.0, metaop_index=1)
        trace.add_busy([1], start=0.0, duration=2.0, flops_per_second=25.0, metaop_index=0)
        return trace

    def test_end_time_tracks_latest_segment(self, trace):
        assert trace.end_time == 2.0

    def test_device_id_validated(self, trace):
        with pytest.raises(ValueError):
            trace.add_busy([5], start=0.0, duration=1.0, flops_per_second=1.0)

    def test_device_busy_time(self, trace):
        busy = trace.device_busy_time()
        assert busy[0] == pytest.approx(2.0)
        assert busy[1] == pytest.approx(2.0)

    def test_device_average_flops(self, trace):
        avg = trace.device_average_flops()
        assert avg[0] == pytest.approx((50 + 100) / 2.0)
        assert avg[1] == pytest.approx(25.0)

    def test_device_utilization_fraction_of_peak(self, trace):
        util = trace.device_utilization()
        assert util[0] == pytest.approx(0.75)
        assert util[1] == pytest.approx(0.25)

    def test_cluster_average_flops(self, trace):
        assert trace.cluster_average_flops() == pytest.approx((150 + 50) / 2.0)

    def test_cluster_timeline_integrates_to_total_flops(self, trace):
        points = trace.cluster_timeline(num_points=50)
        assert len(points) == 50
        step = trace.end_time / 50
        integral = sum(value * step for _, value in points)
        total = sum(seg.flops for seg in trace.segments)
        assert integral == pytest.approx(total, rel=1e-6)

    def test_cluster_timeline_shows_idle_periods(self):
        trace = UtilizationTrace(num_devices=1, peak_flops_per_device=10.0)
        trace.add_busy([0], start=0.0, duration=1.0, flops_per_second=10.0)
        trace.add_busy([0], start=3.0, duration=1.0, flops_per_second=10.0)
        points = trace.cluster_timeline(num_points=4)
        values = [value for _, value in points]
        assert values[0] > 0
        assert values[1] == pytest.approx(0.0)
        assert values[2] == pytest.approx(0.0)

    def test_metaop_utilization(self, trace):
        metaop_flops = trace.metaop_average_flops()
        assert metaop_flops[0] == pytest.approx((50 * 1 + 25 * 2) / 3.0)
        assert metaop_flops[1] == pytest.approx(100.0)
        util = trace.metaop_utilization()
        assert util[1] == pytest.approx(1.0)

    def test_empty_trace(self):
        trace = UtilizationTrace(num_devices=2, peak_flops_per_device=10.0)
        assert trace.cluster_average_flops() == 0.0
        assert trace.device_utilization() == {0: 0.0, 1: 0.0}
        assert trace.cluster_timeline() == [(0.0, 0.0)]
        assert trace.metaop_utilization() == {}

    def test_invalid_timeline_resolution(self, trace):
        with pytest.raises(ValueError):
            trace.cluster_timeline(num_points=0)


def per_device_reference(trace: UtilizationTrace, segments: list[TraceSegment]) -> dict:
    """The aggregates as computed over a flat per-device segment list."""
    busy = {d: 0.0 for d in range(trace.num_devices)}
    totals = {d: 0.0 for d in range(trace.num_devices)}
    for seg in segments:
        busy[seg.device_id] += seg.duration
        totals[seg.device_id] += seg.flops
    step = trace.end_time / 50
    timeline = []
    for i in range(50):
        t_lo, t_hi = i * step, (i + 1) * step
        total = 0.0
        for seg in segments:
            overlap = min(seg.end, t_hi) - max(seg.start, t_lo)
            if overlap > 0:
                total += seg.flops_per_second * overlap
        timeline.append((t_lo, total / step))
    time_per_metaop: dict[int, float] = {}
    flops_per_metaop: dict[int, float] = {}
    for seg in segments:
        if seg.metaop_index is None:
            continue
        time_per_metaop[seg.metaop_index] = (
            time_per_metaop.get(seg.metaop_index, 0.0) + seg.duration
        )
        flops_per_metaop[seg.metaop_index] = (
            flops_per_metaop.get(seg.metaop_index, 0.0) + seg.flops
        )
    return {
        "busy": busy,
        "average": {d: total / trace.end_time for d, total in totals.items()},
        "cluster": sum(seg.flops for seg in segments) / trace.end_time,
        "timeline": timeline,
        "metaop": {i: flops_per_metaop[i] / time_per_metaop[i] for i in time_per_metaop},
    }


class TestDeviceGroupRecords:
    """One record per device group; reads expand it per device."""

    @pytest.fixture
    def groups(self):
        rng = random.Random(3)
        groups = []
        for index in range(40):
            devices = rng.sample(range(16), rng.randint(1, 6))
            groups.append(
                (
                    devices,
                    rng.uniform(0.0, 5.0),
                    rng.uniform(0.0, 2.0),
                    rng.uniform(0.0, 1e12),
                    rng.choice([None, index % 7]),
                    f"wave{index % 5}",
                )
            )
        return groups

    @pytest.fixture
    def trace(self, groups):
        trace = UtilizationTrace(num_devices=16, peak_flops_per_device=1e12)
        for devices, start, duration, rate, metaop, label in groups:
            trace.add_busy(devices, start, duration, rate, metaop_index=metaop, label=label)
        return trace

    def test_one_record_per_group(self, trace, groups):
        assert len(trace.records) == len(groups)
        assert trace.records[0].device_ids == tuple(groups[0][0])

    def test_segments_expand_in_per_device_order(self, trace, groups):
        expected = [
            TraceSegment(
                device_id=device,
                start=start,
                end=start + duration,
                flops_per_second=rate,
                metaop_index=metaop,
                label=label,
            )
            for devices, start, duration, rate, metaop, label in groups
            for device in devices
        ]
        assert trace.segments == expected
        assert trace.end_time == max(seg.end for seg in expected)

    def test_aggregates_equal_per_device_sums_exactly(self, trace):
        reference = per_device_reference(trace, trace.segments)
        assert trace.device_busy_time() == reference["busy"]
        assert trace.device_average_flops() == reference["average"]
        assert trace.cluster_average_flops() == reference["cluster"]
        assert trace.cluster_timeline(num_points=50) == reference["timeline"]
        assert trace.metaop_average_flops() == reference["metaop"]

    @pytest.mark.parametrize(
        "devices", [[4], [-1], [0, 1, 4], [4, 0, 1], [0, -2, 1]], ids=str
    )
    def test_out_of_range_device_anywhere_in_group_raises(self, devices):
        trace = UtilizationTrace(num_devices=4, peak_flops_per_device=1.0)
        with pytest.raises(ValueError):
            trace.add_busy(devices, start=0.0, duration=1.0, flops_per_second=1.0)
        assert trace.records == [] and trace.end_time == 0.0

    def test_negative_duration_raises(self):
        trace = UtilizationTrace(num_devices=4, peak_flops_per_device=1.0)
        with pytest.raises(ValueError):
            trace.add_busy([0, 1], start=2.0, duration=-1.0, flops_per_second=1.0)
        assert trace.records == []

    def test_negative_throughput_raises(self):
        trace = UtilizationTrace(num_devices=4, peak_flops_per_device=1.0)
        with pytest.raises(ValueError):
            trace.add_busy([0, 1], start=0.0, duration=1.0, flops_per_second=-1.0)
        assert trace.records == []

    def test_empty_group_records_nothing(self):
        trace = UtilizationTrace(num_devices=4, peak_flops_per_device=1.0)
        trace.add_busy([], start=0.0, duration=1.0, flops_per_second=1.0)
        assert trace.records == [] and trace.end_time == 0.0
