"""Measurement helpers shared by every workload of the benchmark.

One percentile rule and one geometric mean serve every timing the benchmark
reports, and every metric is kept with its unit and sample count so the
report can print them together.

Percentile rule: a percentile is reported only when at least
:data:`MIN_TAIL` samples lie beyond it (nearest-rank definition).  With too
few samples the metric is absent; it is never replaced by a zero.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL = 10
#: A closed loop short of its minimum op count may run on until this many
#: seconds have passed (never past ``--seconds`` if that is longer).
OVERTIME_S = 120.0
#: A closed-loop op is scaled by the calibration runs that bracket it and
#: those that ended within this many seconds of it (see ``_set_speeds``).
LOCAL_WINDOW_S = 0.05


def percentile(values: Sequence[float], percent: int) -> float | None:
    """Nearest-rank ``percent``-th percentile, or ``None`` when unsupported.

    The value at 1-based rank ``ceil(percent * n / 100)`` of the sorted
    samples is reported only if ``n - rank >= MIN_TAIL`` samples lie beyond
    it.  Integer arithmetic keeps the rank exact (``0.9 * 110`` is not).
    """
    if not 0 < percent < 100:
        raise ValueError("percent must lie strictly between 0 and 100")
    n = len(values)
    rank = (percent * n + 99) // 100
    if n == 0 or n - rank < MIN_TAIL:
        return None
    return sorted(values)[rank - 1]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = []
    for value in values:
        if not value > 0:
            raise ValueError(f"geomean needs positive values, got {value!r}")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(math.fsum(logs) / len(logs))


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str
    samples: int


class MetricSet:
    """Named metrics with units and sample counts, in insertion order."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def add(self, name: str, value: float | None, unit: str, samples: int) -> None:
        """Record one metric; ``None`` (an unsupported percentile) is skipped."""
        if value is None:
            return
        if name in self._metrics:
            raise ValueError(f"metric {name!r} recorded twice")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        self._metrics[name] = Metric(name, value, unit, samples)

    def timing(
        self,
        name: str,
        values: Sequence[float],
        unit: str,
        percents: Sequence[int] = (50, 90, 99),
    ) -> None:
        """Record ``<name>_p<percent>`` for each supported percentile: the
        median and every higher percentile the sample count supports."""
        for percent in percents:
            self.add(f"{name}_p{percent}", percentile(values, percent), unit, len(values))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def __iter__(self):
        return iter(self._metrics.values())

    def lines(self, prefix: str = "") -> list[str]:
        width = max((len(m.name) for m in self), default=0)
        return [f"{prefix}{m.name:<{width}}  {m.value:.6g} {m.unit}  (n={m.samples})" for m in self]

    def as_result(self, names: Sequence[str]) -> dict[str, dict[str, Any]]:
        """The result-line ``metrics`` object for exactly ``names``."""
        missing = [name for name in names if name not in self._metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            name: {"value": self._metrics[name].value, "unit": self._metrics[name].unit}
            for name in names
        }


@dataclass
class Op:
    """One unit of work: a cold solve, a request or a scenario run."""

    index: int
    due: float
    start: float
    end: float
    ok: bool = True
    digest: str = ""
    info: dict = field(default_factory=dict)
    #: Multiply a duration measured in this op by this to get it at nominal
    #: speed; set by each pass from the calibration runs around the op.
    speed: float | None = None

    @property
    def latency(self) -> float:
        """Seconds from when the op was due until it completed."""
        return self.end - self.due


@dataclass
class Pass:
    """One measured pass over a workload's ops."""

    ops: list[Op]
    window_s: float
    cpu_s: float
    #: Seconds each run of :func:`calibrate` took during the pass.
    calibration: list[float] = field(default_factory=list)
    #: Workload-specific counters read at the end of the pass.
    extra: dict = field(default_factory=dict)

    @property
    def speed_factor(self) -> float:
        """Multiply a measured duration by this to get it at nominal speed."""
        return NOMINAL_CALIBRATION_S / statistics.median(self.calibration)

    @property
    def busy_s(self) -> float:
        return math.fsum(op.end - op.start for op in self.ops)

    @property
    def digests(self) -> list[str]:
        return [op.digest for op in self.ops]


#: What one :func:`calibrate` takes on the nominal host (2-core x86 VM,
#: Python 3.11).  Reported durations are scaled to this speed.
NOMINAL_CALIBRATION_S = 0.002
_CALIBRATION_DOC = {f"key{i}": [i, i / 7, "v" * (i % 11), {"n": i}] for i in range(120)}


def calibrate() -> float:
    """CPU seconds a fixed piece of pure-Python work takes right now.

    The host's speed drifts from moment to moment and run to run (shared
    cores, clock changes; up to 2x between half-second windows on the
    2-core development host).  Interleaving this fixed work with the ops and
    scaling each duration by the median of the samples taken around it
    cancels that drift.
    It is timed in thread CPU time, so a thread waiting for the interpreter
    lock does not count.  The work is the benchmark's own, so no change to
    the program can move it.
    """
    start = time.thread_time()
    text = json.dumps(_CALIBRATION_DOC, sort_keys=True)
    rows = sorted((len(k), k, v[1]) for k, v in json.loads(text).items())
    # Thousands of small objects, sorted and looked up, so the working set
    # spills the fastest caches the way a plan's object graph does.
    records = [(i * 7919 % 1601, f"r{i}", {"value": i}) for i in range(1600)]
    records.sort()
    index = {name: record for _, name, record in records}
    total = len(rows)
    for i in range(0, 1600, 2):
        total += index[f"r{i}"]["value"] % 13
    return time.thread_time() - start


def closed_loop(
    run_op: Callable[[int], Op],
    seconds: float,
    min_ops: int,
) -> Pass:
    """One caller running ops back to back for ``seconds``.

    The loop also runs at least ``min_ops`` ops (up to ``OVERTIME_S``), so
    tail percentiles always have enough samples on a slow host.  Each op is
    due when the previous one returned; ``run_op`` stamps the op's own start
    and end around the measured call.
    """
    ops: list[Op] = []
    calibration, stamps = [calibrate()], [time.perf_counter()]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    due = t0
    while not _stop(t0, len(ops), seconds, min_ops):
        op = run_op(len(ops))
        op.due = due
        ops.append(op)
        calibration.append(calibrate())
        due = time.perf_counter()
        stamps.append(due)
    _set_speeds([[op] for op in ops], calibration, stamps)
    return Pass(ops, time.perf_counter() - t0, time.process_time() - cpu0, calibration)


def paired_loop(
    run_plain: Callable[[int], Op],
    run_traced: Callable[[int], Op],
    seconds: float,
    min_ops: int,
) -> tuple[Pass, Pass]:
    """Like :func:`closed_loop`, but each op runs twice in a row, once
    untraced and once traced, the first of the two alternating from op to op.

    Running the same op back to back and swapping which side goes first
    spreads warm caches, warm-up and machine drift evenly over both sides,
    so their busy times compare fairly.
    """
    sides: tuple[list[Op], list[Op]] = ([], [])
    calibration, stamps = [calibrate()], [time.perf_counter()]
    runners = (run_plain, run_traced)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    index = 0
    while not _stop(t0, index, seconds, min_ops):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for side in order:
            due = time.perf_counter()
            op = runners[side](index)
            op.due = due
            sides[side].append(op)
        calibration.append(calibrate())
        stamps.append(time.perf_counter())
        index += 1
    window_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    _set_speeds(list(zip(*sides)), calibration, stamps)
    return (
        Pass(sides[0], window_s, cpu_s, calibration),
        Pass(sides[1], window_s, cpu_s, calibration),
    )


def _set_speeds(
    groups: Sequence[Sequence[Op]], calibration: Sequence[float], stamps: Sequence[float]
) -> None:
    """Give each op the speed factor of the host around it.

    ``calibration[i]`` ran just before group ``i`` of ops and
    ``calibration[i + 1]`` just after it; ``stamps`` holds when each ended.
    Each op is scaled by the median of those two runs and of every other run
    that ended within :data:`LOCAL_WINDOW_S` of its group.  The host switches
    between speed states every few seconds (calibration runs of 1.6 ms and
    2.5 ms alternate within one pass on the development host), so one factor
    for the whole pass left runs 20% apart that scaling each op by its
    neighbourhood brings within a few percent.
    """
    for index, group in enumerate(groups):
        start = min(op.start for op in group) - LOCAL_WINDOW_S
        end = max(op.end for op in group) + LOCAL_WINDOW_S
        first, last = index, index + 1
        while first > 0 and stamps[first - 1] >= start:
            first -= 1
        while last + 1 < len(stamps) and stamps[last + 1] <= end:
            last += 1
        speed = NOMINAL_CALIBRATION_S / statistics.median(calibration[first : last + 1])
        for op in group:
            op.speed = speed


def set_speeds_in_window(
    ops: Sequence[Op], calibration: Sequence[float], stamps: Sequence[float], window_s: float
) -> None:
    """Give each op of an open loop the speed factor of the host around it:
    the median of the calibration runs that ended (at ``stamps``, ascending)
    from ``window_s`` before the op was due until ``window_s`` after it
    ended, or of all of them if none did."""
    for op in ops:
        first = bisect.bisect_left(stamps, op.due - window_s)
        last = bisect.bisect_right(stamps, op.end + window_s)
        nearby = calibration[first:last] or calibration
        op.speed = NOMINAL_CALIBRATION_S / statistics.median(nearby)


def _stop(t0: float, done: int, seconds: float, min_ops: int) -> bool:
    elapsed = time.perf_counter() - t0
    return elapsed >= seconds and (done >= min_ops or elapsed >= OVERTIME_S)


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
