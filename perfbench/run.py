"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0

Workloads: ``plan-cold`` (cold solves), ``serve-flash`` (open-loop plan
serving under a flash crowd) and ``replan-storm`` (unified-runtime replans).

A run builds its inputs from ``--seed``, sets up several times (the median
is ``setup_s``), then measures one untraced pass of about ``--seconds``
seconds and checks the outputs.  With ``--trace 1`` a second, traced pass
replays the same ops with span shims around each layer's entry points; it
reports the per-layer metrics, the tracing overhead, and fails the run if
its outputs differ from the untraced pass.  The report goes to standard
output; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics traced).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("plan-cold", "serve-flash", "replan-storm")
#: Set-ups per run; ``setup_s`` is their median, each scaled to nominal
#: speed by the median of the calibration runs just before and after it.
SETUP_REPEATS = 5
SETUP_CALIBRATIONS = 3
#: Op pairs a traced closed loop runs at least: enough for a p90.
TRACED_MIN_OPS = 100
#: End-to-end metrics of the result line; each workload maps them onto its
#: own measurements (see ``end_to_end`` in the workload modules).
END_TO_END = (
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "throughput_per_s",
    "slo_met_frac",
    "plan_quality_geomean",
    "peak_rss_mb",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_workload(name: str, seed: int, seconds: float):
    if name == "plan-cold":
        from plan_cold import PlanCold as workload
    elif name == "serve-flash":
        from serve_flash import ServeFlash as workload
    else:
        from replan_storm import ReplanStorm as workload
    return workload(seed, seconds)


def traced_op(workload, state, tracer, entry_points, index: int):
    """Run one op of a closed loop with the span shims installed around it."""
    tracer.install(entry_points)
    try:
        return workload.op(state, index, tracer)
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from harness import (
        NOMINAL_CALIBRATION_S,
        MetricSet,
        calibrate,
        closed_loop,
        paired_loop,
        peak_rss_mib,
    )
    from layers import ENTRY_POINTS, LAYER_MAP, RESULT_METRICS, layer_metrics, sender_lag
    from spans import Tracer

    workload = load_workload(args.workload, args.seed, args.seconds)
    out = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
    ]
    out += [f"  {line}" for line in workload.describe()]
    try:
        workload.fixture()
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            # Collect the previous round's garbage outside the timed set-up.
            gc.collect()
            around = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            start = time.perf_counter()
            state = workload.setup()
            seconds = time.perf_counter() - start
            around += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            setup_times.append(seconds * NOMINAL_CALIBRATION_S / statistics.median(around))
            if repeat < SETUP_REPEATS - 1:
                workload.finish(state)
                state = None

        # The inputs built so far belong to the benchmark; keep the
        # collector from rescanning them during the timed passes.
        gc.collect()
        gc.freeze()
        tracer = Tracer() if args.trace else None
        if hasattr(workload, "op"):
            # Closed loop; traced, each op runs both untraced and traced, on
            # the same inputs (ops only read them; the digests would differ
            # if one did not).
            if tracer is None:
                untraced = closed_loop(partial(workload.op, state), args.seconds, workload.min_ops)
            else:
                untraced, traced = paired_loop(
                    partial(workload.op, state),
                    partial(traced_op, workload, state, tracer, ENTRY_POINTS),
                    args.seconds,
                    TRACED_MIN_OPS,
                )
        else:
            # Open loop; traced, the same schedule is replayed a second time.
            untraced = workload.run(state)
            workload.finish(state)
            if tracer is not None:
                # Traced from set-up on, so the store's warm start is seen.
                tracer.install(ENTRY_POINTS)
                try:
                    traced_state = workload.setup()
                    traced = workload.run(traced_state, tracer=tracer)
                    workload.finish(traced_state)
                finally:
                    tracer.uninstall()
        rss = peak_rss_mib()
        failed, messages = workload.check(untraced, state)
        failed |= {op.index for op in untraced.ops if not op.ok}

        metrics = MetricSet()
        metrics.add("setup_s", statistics.median(setup_times), "s", len(setup_times))
        aliases = workload.end_to_end(untraced, metrics)
        metrics.add("peak_rss_mb", rss, "MiB", 1)
        open_loop = not hasattr(workload, "op")

        if tracer is not None:
            if traced.digests != untraced.digests:
                failed.add(-1)
                messages.append("traced and untraced passes produced different outputs")
            else:
                messages.append(
                    f"traced and untraced output digests identical ({len(traced.ops)} ops)"
                )
            layers = MetricSet()
            layer_metrics(tracer, traced.ops, layers, traced.speed_factor)
            sender_lag(traced.ops, layers, traced.speed_factor)
            if open_loop:
                workload.queue_wait(tracer, traced, layers)
                # The passes ran one after the other: compare at nominal speed.
                traced_cpu = traced.cpu_s * traced.speed_factor
                overhead = traced_cpu / (untraced.cpu_s * untraced.speed_factor) - 1.0
            else:
                overhead = traced.busy_s / untraced.busy_s - 1.0
            layers.add("bench.tracing_overhead_frac", overhead, "frac", len(traced.ops))
            trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, origin=traced.ops[0].due)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    untraced_lag = MetricSet()
    sender_lag(untraced.ops, untraced_lag, untraced.speed_factor)
    out.append(
        f"untraced pass: {len(untraced.ops)} ops in {untraced.window_s:.3f} s; durations below are "
        f"scaled to nominal host speed, each op by the factor around it (see harness.calibrate; "
        f"pass median {untraced.speed_factor:.4f})"
    )
    if open_loop:
        out += [f"  {line}" for line in workload.thirds_report(untraced)]
    out += metrics.lines("  ") + untraced_lag.lines("  ")
    out += [f"check: {message}" for message in messages]
    if tracer is not None:
        out.append(
            f"traced pass: {len(traced.ops)} ops in {traced.window_s:.3f} s; "
            f"spans in {trace_path.relative_to(HERE.parent)}"
        )
        out += layers.lines("  ")
        out.append("layer -> end-to-end metric it should move | where it should barely move")
        out += [f"  {layer}: {moves} | {barely}" for layer, (moves, barely) in LAYER_MAP.items()]
        result = layers.as_result(RESULT_METRICS)
    else:
        for name in END_TO_END:
            if name not in metrics:
                source = metrics[aliases[name]]
                metrics.add(name, source.value, source.unit, source.samples)
        out.append("result metrics: " + ", ".join(f"{n} = {aliases.get(n, n)}" for n in END_TO_END))
        result = metrics.as_result(END_TO_END)
    correct = not failed
    print("\n".join(out))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(untraced.ops),
                "failed": len(failed),
                "metrics": result,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
