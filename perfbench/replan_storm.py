"""replan-storm: the planner used incrementally by the unified runtime.

Closed loop, one caller.  Each op runs one seeded ``UnifiedScenario`` on 64,
128 or 256 GPUs through ``UnifiedRunner.run``.  Every scenario mixes four
event episodes on one timeline, in a seeded order:

* in-place job churn — an active job is resubmitted under a new name and
  weight, structurally identical, so incremental replanning can adopt the
  previous plan wholesale;
* an arrival during an island outage — a job arrives as one node goes dark
  (the node recovers twenty iterations later);
* a flash crowd on a degraded cluster — a node straggles, then one or two
  nodes join and a job arrives together;
* a phase change back to the initial task set — a known workload, which the
  runner's plan cache (shared across topologies) can serve.

Here the planner runs through reuse tiers, pooled curves and a shared cache,
so a cold-solve speedup that slows replans shows up here and not in
plan-cold.  Scenarios come in blocks of six, one per (model, cluster size)
pair, with 2-4 initial tasks dealt evenly per pair.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time

from harness import MetricSet, Op, Pass, geomean
from repro.cluster.device import A800_SPEC
from repro.elastic import ClusterEvent, flash_crowd_timeline, island_outage_timeline
from repro.elastic.events import STRAGGLER_CLEAR, STRAGGLER_ONSET
from repro.models import CLIP_TASKS, OFASYS_TASKS, build_clip_task, build_ofasys_task
from repro.unified import (
    PHASE_CHANGE,
    TASK_ARRIVAL,
    UnifiedRunner,
    UnifiedScenario,
    UnifiedTimeline,
    WorkloadEvent,
)

NAME = "replan-storm"
FAMILIES = {"clip": (CLIP_TASKS, build_clip_task), "ofasys": (OFASYS_TASKS, build_ofasys_task)}
SIZES = (64, 128, 256)
GPUS_PER_NODE = 8
EPISODES = ("churn", "outage", "crowd", "phase-back")
#: Sizes of the initial task set.
INITIAL_TASKS = (2, 3, 4)
#: Iterations between episodes; the run lasts one gap past the last one.
GAP = 40
#: Ops every run completes (twenty blocks, about 18 s on the development
#: host), and the ops the end-to-end metrics are taken over: the same
#: scenarios in every run.
MIN_OPS = 120
#: A scenario run slower than this misses the replan-storm latency limit.
LIMIT_S = 2.0
#: Scenarios re-run with incremental=False to check the reports.
CHECK_SAMPLE = 16


def build_scenario(seed: int, index: int) -> UnifiedScenario:
    """The ``index``-th scenario of the seeded stream.

    Scenarios come from one fixed catalogue in blocks of six; the seed sets
    the order within each block.  Runs of different seeds therefore run the
    same scenarios, up to the last, partly run block, and their figures
    compare directly.
    """
    block, slot = divmod(index, len(FAMILIES) * len(SIZES))
    order = list(range(len(FAMILIES) * len(SIZES)))
    random.Random(f"{NAME}:{seed}:{block}").shuffle(order)
    return _catalogue_scenario(block, order[slot])


def _catalogue_scenario(block: int, slot: int) -> UnifiedScenario:
    """Scenario ``slot`` of catalogue block ``block``: one per (model, size)
    pair, with 2-4 initial tasks dealt from a shuffled deck per pair."""
    strata = [(family, size) for family in FAMILIES for size in SIZES]
    family, num_gpus = strata[slot]
    deck = list(INITIAL_TASKS)
    round_, card = divmod(block, len(deck))
    random.Random(f"{NAME}-deck:{family}:{num_gpus}:{round_}").shuffle(deck)
    num_initial = deck[card]
    rng = random.Random(f"{NAME}-catalogue:{block}:{slot}")
    specs, build = FAMILIES[family]
    order = list(specs)
    rng.shuffle(order)
    initial_specs, arriving = order[:num_initial], order[num_initial : num_initial + 2]
    pool = {spec.name: build(spec) for spec in initial_specs + arriving}
    initial = tuple(spec.name for spec in initial_specs)
    nodes = num_gpus // GPUS_PER_NODE

    episodes = list(EPISODES)
    rng.shuffle(episodes)
    if episodes[0] == "phase-back":
        # Going back to the initial set first would change nothing.
        episodes.append(episodes.pop(0))

    timeline = UnifiedTimeline()
    active = list(initial)
    arrivals = [spec.name for spec in arriving]
    at = 0
    for episode in episodes:
        at += GAP
        if episode == "churn":
            slot = rng.randrange(len(active))
            old = pool[active[slot]]
            spec = next(s for s in specs if s.name == old.name)
            twin = build(dataclasses.replace(spec, name=f"{spec.name}_resubmit{at}"))
            twin.weight = 2.0
            pool[twin.name] = twin
            active[slot] = twin.name
            timeline.add_workload(
                WorkloadEvent(PHASE_CHANGE, at_iteration=at, task_names=tuple(active))
            )
        elif episode == "outage":
            node = rng.randrange(nodes)
            for event in island_outage_timeline(node, GPUS_PER_NODE, at, recovery_at=at + GAP // 2):
                timeline.add_cluster(event)
            active.append(arrivals.pop(0))
            timeline.add_workload(
                WorkloadEvent(TASK_ARRIVAL, at_iteration=at, task_names=(active[-1],))
            )
        elif episode == "crowd":
            node = rng.randrange(nodes)
            timeline.add_cluster(
                ClusterEvent(STRAGGLER_ONSET, at_iteration=at - GAP // 4, node=node, severity=0.5)
            )
            for event in flash_crowd_timeline(at, rng.randint(1, 2), GPUS_PER_NODE, A800_SPEC):
                timeline.add_cluster(event)
            active.append(arrivals.pop(0))
            timeline.add_workload(
                WorkloadEvent(TASK_ARRIVAL, at_iteration=at, task_names=(active[-1],))
            )
            timeline.add_cluster(
                ClusterEvent(STRAGGLER_CLEAR, at_iteration=at + GAP // 4, node=node)
            )
        else:
            active = list(initial)
            timeline.add_workload(WorkloadEvent(PHASE_CHANGE, at_iteration=at, task_names=initial))
    return UnifiedScenario(
        num_nodes=nodes,
        devices_per_node=GPUS_PER_NODE,
        device_spec=A800_SPEC,
        timeline=timeline,
        total_iterations=at + GAP,
        task_pool=pool,
        initial_tasks=initial,
        name=f"{NAME}-{block}-{slot}-{family}-{num_gpus}gpu",
    )


def report_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_document(), sort_keys=True).encode()).hexdigest()


class ReplanStorm:
    name = NAME
    min_ops = MIN_OPS

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def describe(self) -> list[str]:
        return [
            f"models {', '.join(FAMILIES)}; clusters {SIZES} GPUs; episodes {', '.join(EPISODES)}; "
            f"latency limit {LIMIT_S * 1e3:.0f} ms"
        ]

    def scenario(self, scenarios, index: int) -> UnifiedScenario:
        return scenarios[index] if index < len(scenarios) else build_scenario(self.seed, index)

    def fixture(self) -> None:
        pass

    def setup(self):
        """Build the first ``MIN_OPS`` scenarios (task pools and timelines)."""
        return [build_scenario(self.seed, i) for i in range(MIN_OPS)]

    def finish(self, state) -> None:
        pass

    def op(self, scenarios, index: int, tracer=None) -> Op:
        """Run scenario ``index`` through the unified runtime."""
        scenario = self.scenario(scenarios, index)
        if tracer is not None:
            tracer.set_op(f"scenario-{index}")
        start = time.perf_counter()
        result = UnifiedRunner(scenario).run()
        end = time.perf_counter()
        return Op(
            index,
            due=start,
            start=start,
            end=end,
            digest=report_digest(result),
            info={"slowdown": result.cumulative_slowdown},
        )

    def check(self, passed: Pass, scenarios) -> tuple[set[int], list[str]]:
        """Re-run a seeded sample with full replanning; reports must match."""
        rng = random.Random(f"{NAME}-check:{self.seed}")
        checkable = min(len(passed.ops), MIN_OPS)
        sample = sorted(rng.sample(range(checkable), min(CHECK_SAMPLE, checkable)))
        failed, messages = set(), []
        for index in sample:
            reference = UnifiedRunner(self.scenario(scenarios, index), incremental=False).run()
            if report_digest(reference) != passed.ops[index].digest:
                failed.add(index)
                messages.append(
                    f"scenario {index}: incremental report differs from full replanning"
                )
        return failed, [f"checked {len(sample)} scenarios against incremental=False"] + messages

    def end_to_end(self, passed: Pass, metrics: MetricSet) -> dict[str, str]:
        ops = passed.ops[:MIN_OPS]
        # Durations at nominal host speed, each scaled by its op's factor.
        scenario_s = [(op.end - op.start) * op.speed for op in ops]
        metrics.timing("scenario_ms", [seconds * 1e3 for seconds in scenario_s], "ms")
        metrics.add("scenarios_per_s", len(ops) / sum(scenario_s), "1/s", len(ops))
        metrics.add(
            "scenario_slo_met_frac",
            sum(op.ok and op.end - op.start <= LIMIT_S for op in ops) / len(ops),
            "frac",
            len(ops),
        )
        slowdown = geomean(op.info["slowdown"] for op in ops)
        metrics.add("run_slowdown_geomean", slowdown, "ratio", len(ops))
        return {
            "latency_ms_p50": "scenario_ms_p50",
            "latency_ms_p90": "scenario_ms_p90",
            "throughput_per_s": "scenarios_per_s",
            "slo_met_frac": "scenario_slo_met_frac",
            "plan_quality_geomean": "run_slowdown_geomean",
        }
