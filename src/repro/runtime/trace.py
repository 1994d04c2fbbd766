"""Utilization traces produced by the simulated runtime engine.

These traces back the case-study figures of the paper: cluster utilization over
the iteration timeline (Fig. 1 lower, Fig. 9a), per-device utilization and
per-MetaOp utilization spider charts (Fig. 9b).  Utilization is measured in
achieved FLOP/s, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass(frozen=True)
class TraceSegment:
    """A contiguous busy period of one device."""

    device_id: int
    start: float
    end: float
    flops_per_second: float
    metaop_index: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("Trace segment ends before it starts")
        if self.flops_per_second < 0:
            raise ValueError("Trace segment has negative throughput")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def flops(self) -> float:
        return self.flops_per_second * self.duration


@dataclass(frozen=True)
class TraceRecord:
    """One busy period shared by a device group (one wave entry).

    Every device of the group is busy over the same interval at the same
    per-device throughput, so the trace stores the group once and expands it
    into per-device :class:`TraceSegment` objects only when read.
    """

    device_ids: tuple[int, ...]
    start: float
    end: float
    flops_per_second: float
    metaop_index: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("Trace segment ends before it starts")
        if self.flops_per_second < 0:
            raise ValueError("Trace segment has negative throughput")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def flops(self) -> float:
        """FLOPs one device of the group performs."""
        return self.flops_per_second * self.duration


@dataclass
class UtilizationTrace:
    """Busy records over one (or more) training iterations.

    The trace holds one :class:`TraceRecord` per device group, in the order
    they were added.  :attr:`segments` expands them per device, and every
    aggregate walks the records in that same per-device order, so its sums
    equal the ones a per-device segment list would give.
    """

    num_devices: int
    peak_flops_per_device: float
    records: list[TraceRecord] = field(default_factory=list)
    end_time: float = 0.0

    def add_busy(
        self,
        device_ids: Sequence[int],
        start: float,
        duration: float,
        flops_per_second: float,
        metaop_index: Optional[int] = None,
        label: str = "",
    ) -> None:
        """Record ``device_ids`` busy over ``[start, start + duration]``."""
        devices = tuple(device_ids)
        if not devices:
            return
        if min(devices) < 0 or max(devices) >= self.num_devices:
            bad = next(d for d in devices if not 0 <= d < self.num_devices)
            raise ValueError(f"Device id {bad} outside [0, {self.num_devices})")
        record = TraceRecord(
            device_ids=devices,
            start=start,
            end=start + duration,
            flops_per_second=flops_per_second,
            metaop_index=metaop_index,
            label=label,
        )
        self.records.append(record)
        self.end_time = max(self.end_time, record.end)

    @property
    def segments(self) -> list[TraceSegment]:
        """Per-device busy segments, expanded from the records on each read."""
        return [
            TraceSegment(
                device_id=device,
                start=record.start,
                end=record.end,
                flops_per_second=record.flops_per_second,
                metaop_index=record.metaop_index,
                label=record.label,
            )
            for record in self.records
            for device in record.device_ids
        ]

    # ------------------------------------------------------------- aggregates
    def device_busy_time(self) -> dict[int, float]:
        busy = {d: 0.0 for d in range(self.num_devices)}
        for record in self.records:
            duration = record.duration
            for device in record.device_ids:
                busy[device] += duration
        return busy

    def device_average_flops(self) -> dict[int, float]:
        """Average achieved FLOP/s per device over the full timeline."""
        if self.end_time <= 0:
            return {d: 0.0 for d in range(self.num_devices)}
        totals = {d: 0.0 for d in range(self.num_devices)}
        for record in self.records:
            flops = record.flops
            for device in record.device_ids:
                totals[device] += flops
        return {d: total / self.end_time for d, total in totals.items()}

    def device_utilization(self) -> dict[int, float]:
        """Average utilization of each device as a fraction of peak FLOP/s."""
        return {
            d: flops / self.peak_flops_per_device
            for d, flops in self.device_average_flops().items()
        }

    def cluster_average_flops(self) -> float:
        """Cluster-wide average achieved FLOP/s over the timeline."""
        if self.end_time <= 0:
            return 0.0
        return (
            sum(record.flops for record in self.records for _ in record.device_ids)
            / self.end_time
        )

    def cluster_timeline(self, num_points: int = 200) -> list[tuple[float, float]]:
        """Sampled cluster FLOP/s over time (the curve of Fig. 9a)."""
        if num_points <= 0:
            raise ValueError("num_points must be positive")
        if self.end_time <= 0:
            return [(0.0, 0.0)]
        step = self.end_time / num_points
        points = []
        for i in range(num_points):
            t_lo, t_hi = i * step, (i + 1) * step
            total = 0.0
            for record in self.records:
                overlap = min(record.end, t_hi) - max(record.start, t_lo)
                if overlap > 0:
                    flops = record.flops_per_second * overlap
                    for _ in record.device_ids:
                        total += flops
            points.append((t_lo, total / step))
        return points

    def metaop_average_flops(self) -> dict[int, float]:
        """Average achieved FLOP/s of each MetaOp while it executes (Fig. 9b)."""
        time_per_metaop: dict[int, float] = {}
        flops_per_metaop: dict[int, float] = {}
        for record in self.records:
            index = record.metaop_index
            if index is None:
                continue
            duration, flops = record.duration, record.flops
            busy = time_per_metaop.get(index, 0.0)
            work = flops_per_metaop.get(index, 0.0)
            for _ in record.device_ids:
                busy += duration
                work += flops
            time_per_metaop[index] = busy
            flops_per_metaop[index] = work
        return {
            idx: flops_per_metaop[idx] / time_per_metaop[idx]
            for idx in time_per_metaop
            if time_per_metaop[idx] > 0
        }

    def metaop_utilization(self) -> dict[int, float]:
        """Per-MetaOp utilization as a fraction of per-device peak FLOP/s."""
        return {
            idx: flops / self.peak_flops_per_device
            for idx, flops in self.metaop_average_flops().items()
        }
