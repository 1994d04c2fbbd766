"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 perfbench/selftest.py

They cover the percentile and geometric-mean helpers, the per-op speed
factors, the span bookkeeping, and the seeded input generators (same seed,
same inputs; another seed, other inputs).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import (  # noqa: E402
    MIN_TAIL,
    NOMINAL_CALIBRATION_S,
    MetricSet,
    Op,
    _set_speeds,
    geomean,
    percentile,
)
from spans import Span, Tracer, union_length  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_absent_with_too_few_samples_beyond(self):
        self.assertIsNone(percentile([], 50))
        self.assertIsNone(percentile([3.0], 50))
        self.assertIsNone(percentile(list(range(99)), 90))
        self.assertIsNone(percentile(list(range(19)), 50))

    def test_nearest_rank_with_exactly_enough_samples(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(percentile(values, 90), 90.0)
        self.assertEqual(percentile(list(reversed(values)), 50), 50.0)
        self.assertEqual(percentile(list(range(1, 21)), 50), 10)

    def test_rank_is_exact_where_floats_are_not(self):
        # 0.9 * 110 is 99.00000000000001 in floating point; the rank is 99.
        self.assertEqual(percentile(list(range(1, 111)), 90), 99)

    def test_ties_count_as_samples_beyond(self):
        values = [5.0] * (MIN_TAIL + 10)
        self.assertEqual(percentile(values, 50), 5.0)

    def test_rejects_out_of_range_percent(self):
        with self.assertRaises(ValueError):
            percentile([1.0] * 100, 100)


class GeomeanAndMetricsTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(geomean([7.0]), 7.0)
        for bad in ([], [1.0, 0.0], [-2.0]):
            with self.assertRaises(ValueError):
                geomean(bad)

    def test_metric_set_skips_unsupported_percentiles_and_lists_units(self):
        metrics = MetricSet()
        metrics.timing("op_ms", [1.0] * 25, "ms")
        self.assertIn("op_ms_p50", metrics)
        self.assertNotIn("op_ms_p90", metrics)
        self.assertEqual(metrics.lines(), ["op_ms_p50  1 ms  (n=25)"])
        with self.assertRaises(KeyError):
            metrics.as_result(["op_ms_p50", "op_ms_p90"])
        with self.assertRaises(ValueError):
            metrics.add("op_ms_p50", 2.0, "ms", 1)


class SpeedTest(unittest.TestCase):
    FAST, SLOW = NOMINAL_CALIBRATION_S, 2 * NOMINAL_CALIBRATION_S

    def test_long_ops_scaled_by_the_calibrations_bracketing_them(self):
        # 0.2 s ops, calibrated 0.05 s before each; the host halves its
        # speed during the third op.
        ops = [Op(i, due=0.0, start=0.3 * i, end=0.3 * i + 0.2) for i in range(4)]
        stamps = [0.3 * i - 0.05 for i in range(5)]
        calibration = [self.FAST, self.FAST, self.FAST, self.SLOW, self.SLOW]
        _set_speeds([[op] for op in ops], calibration, stamps)
        self.assertEqual([round(op.speed, 6) for op in ops], [1.0, 1.0, round(2 / 3, 6), 0.5])

    def test_short_ops_also_take_nearby_calibrations(self):
        ops = [Op(i, due=0.0, start=0.02 * i + 0.001, end=0.02 * i + 0.011) for i in range(3)]
        stamps = [0.02 * i for i in range(4)]
        calibration = [self.FAST, self.SLOW, self.SLOW, self.SLOW]
        _set_speeds([[op] for op in ops], calibration, stamps)
        # The first op's bracket alone would give 2/3.
        self.assertEqual([op.speed for op in ops], [0.5, 0.5, 0.5])

    def test_both_ops_of_a_pair_share_one_factor(self):
        pair = (Op(0, due=0.0, start=0.0, end=0.1), Op(0, due=0.0, start=0.1, end=0.3))
        _set_speeds([pair], [self.SLOW, self.SLOW], [-0.01, 0.31])
        self.assertEqual([op.speed for op in pair], [0.5, 0.5])


class SpansTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)], within=[(2, 5.5)]), 1.5)

    def test_self_seconds_subtracts_children(self):
        tracer = Tracer()
        tracer.spans += [
            Span(0, "a", "f", 0.0, 10.0, -1, None, 1, None),
            Span(1, "b", "g", 1.0, 4.0, 0, None, 1, None),
            Span(2, "b", "g", 5.0, 6.0, 0, None, 1, None),
        ]
        self.assertEqual(tracer.self_seconds(), {0: 6.0, 1: 3.0, 2: 1.0})

    def test_install_records_spans_and_uninstall_restores(self):
        import repro.core.contraction as contraction
        from repro.core.planner import ExecutionPlanner

        original_plan = ExecutionPlanner.plan
        original_contract = contraction.contract_graph
        tracer = Tracer()
        tracer.install(
            [
                ("core.planner", "repro.core.planner:ExecutionPlanner.plan", None, None),
                ("core.contraction", "repro.core.contraction:contract_graph", None, None),
            ]
        )
        try:
            from repro import make_cluster, multitask_clip_tasks

            tracer.set_op("op-1")
            ExecutionPlanner(make_cluster(8)).plan(multitask_clip_tasks(2))
        finally:
            tracer.uninstall()
        self.assertIs(ExecutionPlanner.plan, original_plan)
        self.assertIs(contraction.contract_graph, original_contract)
        planner, contract = sorted(tracer.spans, key=lambda s: s.start)
        self.assertEqual((planner.layer, contract.layer), ("core.planner", "core.contraction"))
        self.assertEqual(contract.parent, planner.sid)
        self.assertEqual({planner.op, contract.op}, {"op-1"})


class GeneratorsTest(unittest.TestCase):
    def test_plan_cold_problems(self):
        from plan_cold import FAMILIES, SIZES, problem_stream

        def first(seed, n=48):
            stream = problem_stream(seed)
            return [next(stream) for _ in range(n)]

        self.assertEqual(first(1), first(1))
        self.assertNotEqual(first(1), first(2))
        problems = first(3, 160)
        self.assertEqual(len(set(problems)), len(problems))
        block = problems[:16]
        self.assertEqual(
            sorted((p.family, p.num_gpus) for p in block),
            sorted((f, s) for f in FAMILIES for s in SIZES),
        )

    def test_replan_storm_scenarios(self):
        from replan_storm import build_scenario

        def document(seed, index):
            scenario = build_scenario(seed, index)
            return scenario.num_nodes, scenario.initial_tasks, scenario.timeline.to_document()

        self.assertEqual(document(1, 7), document(1, 7))
        self.assertNotEqual([document(1, i) for i in range(6)], [document(2, i) for i in range(6)])

    def test_serve_flash_requests(self):
        from serve_flash import draw_requests

        def draw(seed):
            stream, arrivals, thirds, fresh, tenants = draw_requests(seed, 300)
            names = [tuple(task.name for task in workload) for workload in stream]
            return names, arrivals, thirds, fresh, tenants

        self.assertEqual(draw(1), draw(1))
        self.assertNotEqual(draw(1), draw(2))
        names, arrivals, thirds, fresh, _ = draw(4)
        self.assertEqual(len(set(names)), 55 + 28)
        self.assertEqual(arrivals, sorted(arrivals))
        self.assertEqual([thirds.count(t) for t in range(3)], [100, 100, 100])
        self.assertTrue(0.35 < sum(fresh) / len(fresh) < 0.65)


if __name__ == "__main__":
    unittest.main()
