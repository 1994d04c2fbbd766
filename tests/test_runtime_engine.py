"""Unit tests for the runtime engine (§3.6) and its four steps."""

import pytest

from repro.core.planner import ExecutionPlanner
from repro.runtime.engine import RuntimeEngine
from repro.runtime.results import TimeBreakdown


@pytest.fixture
def plan(two_island_cluster, tiny_tasks):
    return ExecutionPlanner(two_island_cluster).plan(tiny_tasks)


@pytest.fixture
def engine(plan):
    return RuntimeEngine(plan)


class TestLocalization:
    def test_every_device_has_a_program(self, engine, plan):
        assert set(engine.local_programs) == set(range(plan.cluster.num_devices))

    def test_programs_are_built_on_first_access_only(self, engine):
        engine.run_iteration()
        assert "local_programs" not in vars(engine)
        programs = engine.local_programs
        assert engine.local_programs is programs

    def test_local_slices_match_placement(self, engine, plan):
        for wave in plan.waves:
            for entry in wave.entries:
                devices = plan.placement.devices_for(wave.index, entry.metaop_index)
                for device in devices:
                    program = engine.local_programs[device]
                    matching = [
                        s
                        for s in program.slices
                        if s.wave_index == wave.index
                        and s.metaop_index == entry.metaop_index
                    ]
                    assert len(matching) == 1
                    assert matching[0].num_operators == entry.layers

    def test_local_operator_names_are_real_operators(self, engine, plan):
        known = {
            op.name
            for metaop in plan.metagraph.metaops.values()
            for op in metaop.operators
        }
        for program in engine.local_programs.values():
            for local_slice in program.slices:
                assert set(local_slice.operator_names) <= known


class TestEngineComponents:
    def test_transmissions_built(self, engine):
        assert isinstance(engine.transmissions, list)

    def test_parameter_pool_built(self, engine):
        assert engine.parameter_pool.num_groups > 0


class TestTrainingStep:
    def test_run_iteration(self, engine):
        result = engine.run_iteration()
        assert result.iteration_time > 0
        assert isinstance(result.breakdown, TimeBreakdown)
        assert result.num_waves == len(engine.plan.waves)

    def test_run_many_iterations(self, engine):
        run = engine.run(num_iterations=5, planning_seconds=0.25)
        assert run.num_iterations == 5
        assert run.planning_seconds == 0.25
        assert run.total_time == pytest.approx(
            0.25 + 5 * run.iteration_results[0].iteration_time
        )
        assert run.mean_iteration_time == pytest.approx(
            run.iteration_results[0].iteration_time
        )

    def test_run_rejects_non_positive_iterations(self, engine):
        with pytest.raises(ValueError):
            engine.run(0)

    def test_breakdown_validation(self):
        with pytest.raises(ValueError):
            TimeBreakdown(forward_backward=-1.0, param_sync=0.0, send_recv=0.0)
        breakdown = TimeBreakdown(forward_backward=3.0, param_sync=1.0, send_recv=0.0)
        assert breakdown.total == 4.0
        assert breakdown.fraction("forward_backward") == pytest.approx(0.75)
