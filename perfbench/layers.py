"""The layers the benchmark traces, their entry points, and their metrics.

Each layer is named after its module.  ``ENTRY_POINTS`` lists the public
functions the traced pass wraps; ``LAYER_MAP`` records which end-to-end
metric a layer should move on which workload, and where it should barely
move — the prediction a change to that layer is judged against.
"""

from __future__ import annotations

from collections import defaultdict

from harness import MetricSet, percentile
from spans import Tracer, union_length


def _planner_op(tracer: Tracer, args, kwargs):
    # A service worker plans on behalf of the request that missed; the
    # submitting thread registered that request under its fingerprint.
    return tracer.fingerprint_ops.get(kwargs.get("fingerprint"), tracer.current_op())


def _reuse(plan, args, kwargs):
    return plan.report.reused_levels, plan.report.num_levels


def _run_summary(result, args, kwargs):
    measured = [
        outcome.replan.measured_seconds
        for outcome in result.outcomes
        if outcome.replan is not None and not outcome.replan.cache_hit
    ]
    return result.replan_count, result.cache_hits, measured


def _hit(result, args, kwargs):
    return result is not None


#: (layer, "module:function" or "module:Class.method", probe, op_of)
ENTRY_POINTS = (
    ("graph", "repro.graph.builder:build_unified_graph", None, None),
    ("service.fingerprint", "repro.service.fingerprint:fingerprint_workload", None, None),
    ("core.planner", "repro.core.planner:ExecutionPlanner.plan", None, _planner_op),
    ("core.planner", "repro.core.planner:ExecutionPlanner.plan_incremental", None, _planner_op),
    ("core.contraction", "repro.core.contraction:contract_graph", None, None),
    (
        "core.estimator",
        "repro.core.estimator:ScalabilityEstimator.estimate_with_reuse",
        lambda result, args, kwargs: (result[1], len(result[0])),
        None,
    ),
    ("core.allocator", "repro.core.allocator:ResourceAllocator.allocate", None, None),
    ("core.hetero", "repro.core.hetero:HeterogeneousLevelAllocator.allocate", None, None),
    (
        "core.scheduler",
        "repro.core.scheduler:WavefrontScheduler.schedule",
        lambda result, args, kwargs: result.num_waves,
        None,
    ),
    (
        "core.placement",
        "repro.core.placement:LocalityAwarePlacer.place",
        lambda result, args, kwargs: result.backtracks,
        None,
    ),
    (
        "core.serialization",
        "repro.core.serialization:plan_to_json",
        lambda result, args, kwargs: len(result),
        None,
    ),
    ("runtime", "repro.runtime.engine:RuntimeEngine.__init__", None, None),
    ("runtime", "repro.runtime.engine:RuntimeEngine.run_iteration", None, None),
    ("service.server", "repro.service.server:PlanService.submit", None, None),
    ("service.cache", "repro.service.cache:PlanCache.get", _hit, None),
    ("service.cache", "repro.service.cache:PlanCache.get_payload", _hit, None),
    ("service.cache", "repro.service.cache:PlanCache.put", None, None),
    ("service.store", "repro.service.store:PlanStore.load_into", None, None),
    ("service.store", "repro.service.store:PlanStore.save", None, None),
    ("obs", "repro.obs.telemetry:TelemetryJournal.emit", None, None),
    ("obs", "repro.obs.slo:SloTracker.record", None, None),
    ("service.incremental", "repro.service.incremental:IncrementalPlanner.plan", _reuse, None),
    ("unified", "repro.unified.runtime:UnifiedRunner.run", _run_summary, None),
)

#: Layers in report order (the per-layer result metrics cover each).
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))

#: layer -> (end-to-end metric it should move on a workload; where it should
#: barely move).  Names are the end-to-end metrics of the report.
LAYER_MAP = {
    "graph": ("solve_ms_p50 on plan-cold (small problems)", "serve-flash"),
    "service.fingerprint": (
        "request_ms_p50, crowd_request_ms_p90 on serve-flash; scenario_ms_p50 on replan-storm",
        "plan-cold",
    ),
    "core.planner": ("solve_ms_p50 on plan-cold", "serve-flash"),
    "core.contraction": (
        "solve_ms_p50 on plan-cold; scenario_ms_p50 on replan-storm",
        "serve-flash",
    ),
    "core.estimator": ("solve_ms_p50 on plan-cold", "replan-storm (curves pooled)"),
    "core.allocator": ("solve_ms_p90 on plan-cold", "serve-flash"),
    "core.hetero": ("solve_ms_p90 on plan-cold (heterogeneous problems)", "serve-flash"),
    "core.scheduler": ("solve_ms_p50 on plan-cold; quality via plan_iter_s_geomean", "serve-flash"),
    "core.placement": (
        "solve_ms_p90, plans_per_s on plan-cold (large clusters)",
        "serve-flash; replan-storm full-structure reuse",
    ),
    "core.serialization": (
        "plans_per_s on plan-cold; request_ms_p90 on serve-flash (misses)",
        "replan-storm",
    ),
    "runtime": (
        "plans_per_s on plan-cold; scenario_ms_p50 on replan-storm",
        "serve-flash (not run)",
    ),
    "service.server": (
        "request_ms_p90, crowd_request_ms_p90, slo_met_frac on serve-flash",
        "plan-cold, replan-storm (not run)",
    ),
    "service.cache": (
        "request_ms_p50 on serve-flash; scenario_ms_p50 on replan-storm (phase-back hits)",
        "plan-cold (not run)",
    ),
    "service.store": ("setup_s on serve-flash", "others (not run)"),
    "obs": ("request_ms_p50 on serve-flash", "plan-cold, replan-storm"),
    "service.incremental": ("scenario_ms_p50 on replan-storm", "plan-cold (not run)"),
    "unified": ("scenario_ms_p90 on replan-storm", "others (not run)"),
}

#: Report-only timings: metric base name -> (span names, unit scale, unit).
TIMINGS = {
    "graph.build_ms": (("build_unified_graph",), 1e3, "ms"),
    "service.fingerprint_ms": (("fingerprint_workload",), 1e3, "ms"),
    "core.contraction_ms": (("contract_graph",), 1e3, "ms"),
    "core.estimator_ms": (("ScalabilityEstimator.estimate_with_reuse",), 1e3, "ms"),
    "core.allocator_ms": (("ResourceAllocator.allocate",), 1e3, "ms"),
    "core.hetero_ms": (("HeterogeneousLevelAllocator.allocate",), 1e3, "ms"),
    "core.scheduler_ms": (("WavefrontScheduler.schedule",), 1e3, "ms"),
    "core.placement_ms": (("LocalityAwarePlacer.place",), 1e3, "ms"),
    "core.serialization_ms": (("plan_to_json",), 1e3, "ms"),
    "runtime.engine_init_ms": (("RuntimeEngine.__init__",), 1e3, "ms"),
    "runtime.iteration_ms": (("RuntimeEngine.run_iteration",), 1e3, "ms"),
    "service.submit_ms": (("PlanService.submit",), 1e3, "ms"),
    "service.cache_op_us": (("PlanCache.get", "PlanCache.get_payload", "PlanCache.put"), 1e6, "us"),
    "obs.journal_emit_us": (("TelemetryJournal.emit",), 1e6, "us"),
    "obs.slo_record_us": (("SloTracker.record",), 1e6, "us"),
    "service.incremental_plan_ms": (("IncrementalPlanner.plan",), 1e3, "ms"),
}

#: Result-line metrics of the traced run (units as listed in BENCHMARK.json).
RESULT_METRICS = tuple(
    name
    for layer in LAYERS
    for name in (f"{layer}.calls_per_op", f"{layer}.self_ms_per_op")
) + ("bench.tracing_overhead_frac", "bench.unattributed_frac", "bench.sender_lag_ms_p90")


def layer_metrics(tracer: Tracer, ops, metrics: MetricSet, speed: float) -> None:
    """Per-layer metrics of one traced pass over ``ops``.

    Generic for every layer: calls and self time per op (zero where the
    workload never enters the layer, which is itself the measurement).
    Then the layer-specific figures, each recorded only where its samples
    exist: entry-point latency percentiles, reuse and share ratios.
    Durations are scaled by the pass's ``speed`` factor.
    """
    num_ops = len(ops)
    self_seconds = tracer.self_seconds()
    layers = tracer.by_layer()
    for layer in LAYERS:
        spans = layers[layer]
        self_total = sum(self_seconds[span.sid] for span in spans)
        metrics.add(f"{layer}.calls_per_op", len(spans) / num_ops, "count", len(spans))
        metrics.add(f"{layer}.self_ms_per_op", self_total * 1e3 * speed / num_ops, "ms", len(spans))

    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    for base, (names, scale, unit) in TIMINGS.items():
        values = [span.seconds * scale * speed for name in names for span in by_name[name]]
        metrics.timing(base, values, unit)

    op_seconds = sum(op.end - op.due for op in ops)
    metrics.add("graph.build_calls", len(layers["graph"]), "count", num_ops)
    fingerprint = layers["service.fingerprint"]
    metrics.add("service.fingerprint_calls", len(fingerprint), "count", num_ops)
    metrics.add(
        "service.fingerprint_share",
        sum(self_seconds[s.sid] for s in fingerprint) / op_seconds,
        "frac",
        len(fingerprint),
    )
    estimates = [s.info for s in layers["core.estimator"]]
    if estimates and sum(total for _, total in estimates):
        metrics.add(
            "core.estimator_curves_reused_frac",
            sum(reused for reused, _ in estimates) / sum(total for _, total in estimates),
            "frac",
            len(estimates),
        )
    schedules = [s.info for s in layers["core.scheduler"]]
    if schedules:
        waves = sum(schedules) / len(schedules)
        metrics.add("core.scheduler_waves_per_plan", waves, "count", len(schedules))
    placements = layers["core.placement"]
    planner_seconds = sum(s.seconds for s in layers["core.planner"])
    if placements and planner_seconds:
        metrics.add(
            "core.placement_share",
            sum(s.seconds for s in placements) / planner_seconds,
            "frac",
            len(placements),
        )
        metrics.add(
            "core.placement_backtracks_per_plan",
            sum(s.info for s in placements) / len(placements),
            "count",
            len(placements),
        )
    sizes = [s.info / 1024 for s in layers["core.serialization"]]
    metrics.timing("core.serialization_kib", sizes, "KiB", (50,))
    for name, metric in (
        ("PlanStore.load_into", "service.store_load_ms"),
        ("PlanStore.save", "service.store_save_ms"),
    ):
        calls = by_name[name]
        if calls:
            mean_ms = sum(s.seconds for s in calls) * 1e3 * speed / len(calls)
            metrics.add(metric, mean_ms, "ms", len(calls))
    reuse = [s.info for s in layers["service.incremental"]]
    if reuse and sum(levels for _, levels in reuse):
        metrics.add(
            "service.incremental_levels_reused_frac",
            sum(reused for reused, _ in reuse) / sum(levels for _, levels in reuse),
            "frac",
            len(reuse),
        )
    runs = [s.info for s in layers["unified"]]
    if runs:
        replans = sum(count for count, _, _ in runs)
        metrics.add("unified.replans_per_scenario", replans / len(runs), "count", len(runs))
        if replans:
            cache_hits = sum(hits for _, hits, _ in runs)
            metrics.add("unified.cache_hit_frac", cache_hits / replans, "frac", replans)
        replan_ms = [seconds * 1e3 * speed for _, _, measured in runs for seconds in measured]
        metrics.timing("unified.replan_ms", replan_ms, "ms")

    # Harness validity: how much of the ops' time no layer span covers.
    op_intervals = [(op.start, op.end) for op in ops]
    covered = union_length(((s.start, s.end) for s in tracer.spans), within=op_intervals)
    unattributed = 1.0 - covered / union_length(op_intervals)
    metrics.add("bench.unattributed_frac", unattributed, "frac", num_ops)


def sender_lag(ops, metrics: MetricSet, speed: float) -> None:
    """How late each op started after it was due (generator or caller lag)."""
    lags = [(op.start - op.due) * 1e3 * speed for op in ops]
    metrics.add("bench.sender_lag_ms_p90", percentile(lags, 90), "ms", len(lags))
