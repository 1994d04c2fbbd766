"""Unit tests for device placement (§3.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
from repro.cluster.topology import ClusterTopology
from repro.core.allocator import ResourceAllocator
from repro.core.contraction import contract_graph
from repro.core.estimator import ScalabilityEstimator
from repro.core.placement import (
    LocalityAwarePlacer,
    PlacementError,
    SequentialPlacer,
    _FreeSlots,
)
from repro.core.plan import WaveEntry
from repro.core.scheduler import WavefrontScheduler
from repro.costmodel.memory import MemoryModel, MemoryModelConfig
from repro.costmodel.profiler import SyntheticProfiler
from repro.graph.builder import build_unified_graph


def build_schedule(cluster, tasks):
    """Plan up to (but excluding) placement for the given tasks."""
    graph = build_unified_graph(tasks)
    metagraph = contract_graph(graph)
    curves = ScalabilityEstimator(SyntheticProfiler(cluster)).estimate(metagraph)
    allocations = ResourceAllocator(cluster.num_devices).allocate(metagraph, curves)
    scheduler = WavefrontScheduler(cluster.num_devices)
    metaops_by_level = {
        level: metagraph.metaops_at_level(level) for level in allocations
    }
    schedule = scheduler.schedule(allocations, metaops_by_level, curves)
    return metagraph, schedule


@pytest.fixture
def planned(two_island_cluster, tiny_tasks):
    metagraph, schedule = build_schedule(two_island_cluster, tiny_tasks)
    return two_island_cluster, metagraph, schedule


class TestLocalityAwarePlacer:
    def test_every_entry_gets_the_right_number_of_devices(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            for entry in wave.entries:
                devices = placement.devices_for(wave.index, entry.metaop_index)
                assert len(devices) == entry.n_devices
                assert len(set(devices)) == entry.n_devices
                assert all(0 <= d < cluster.num_devices for d in devices)

    def test_no_device_double_booked_within_a_wave(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            used: list[int] = []
            for entry in wave.entries:
                used.extend(placement.devices_for(wave.index, entry.metaop_index))
            assert len(used) == len(set(used))

    def test_small_entries_stay_within_one_island(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            for entry in wave.entries:
                if entry.n_devices > cluster.devices_per_node:
                    continue
                devices = placement.devices_for(wave.index, entry.metaop_index)
                islands = {cluster.island_of(d) for d in devices}
                assert len(islands) == 1

    def test_same_metaop_prefers_same_devices_across_waves(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        moves = 0
        slices: dict[int, list[tuple[int, ...]]] = {}
        for wave in schedule.waves:
            for entry in wave.entries:
                slices.setdefault(entry.metaop_index, []).append(
                    placement.devices_for(wave.index, entry.metaop_index)
                )
        stayed = 0
        total = 0
        for history in slices.values():
            for prev, nxt in zip(history, history[1:]):
                total += 1
                if set(prev) & set(nxt):
                    stayed += 1
                else:
                    moves += 1
        if total:
            assert stayed >= moves

    def test_memory_accounted_for_every_device(self, planned):
        cluster, metagraph, schedule = planned
        memory_model = MemoryModel()
        placement = LocalityAwarePlacer(cluster, memory_model).place(
            schedule.waves, metagraph
        )
        assert set(placement.device_memory_bytes) == set(range(cluster.num_devices))
        for value in placement.device_memory_bytes.values():
            assert value >= memory_model.framework_overhead()

    def test_oom_recorded_when_memory_is_scarce(self, two_island_cluster, tiny_tasks):
        metagraph, schedule = build_schedule(two_island_cluster, tiny_tasks)
        # An absurdly large activation multiplier guarantees projected OOM.
        scarce = MemoryModel(
            MemoryModelConfig(activation_multiplier=1e7, framework_overhead_bytes=0.0)
        )
        placer = LocalityAwarePlacer(two_island_cluster, scarce, max_backtracks=10_000)
        placement = placer.place(schedule.waves, metagraph)
        assert placement.oom_events
        assert placement.backtracks > 0

    def test_memory_imbalance_metric(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        assert placement.memory_imbalance() >= 1.0


class TestSequentialPlacer:
    def test_consecutive_device_blocks(self, planned):
        cluster, metagraph, schedule = planned
        placement = SequentialPlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            cursor = 0
            for entry in sorted(wave.entries, key=lambda e: e.metaop_index):
                devices = placement.devices_for(wave.index, entry.metaop_index)
                assert devices == tuple(range(cursor, cursor + entry.n_devices))
                cursor += entry.n_devices

    def test_sequential_placement_moves_metaops_more(self, planned):
        """The ablation baseline causes more cross-wave device churn."""
        cluster, metagraph, schedule = planned
        locality = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        sequential = SequentialPlacer(cluster).place(schedule.waves, metagraph)

        def churn(placement):
            history: dict[int, list[tuple[int, ...]]] = {}
            for wave in schedule.waves:
                for entry in wave.entries:
                    history.setdefault(entry.metaop_index, []).append(
                        placement.devices_for(wave.index, entry.metaop_index)
                    )
            moved = 0
            for slices in history.values():
                for prev, nxt in zip(slices, slices[1:]):
                    moved += len(set(nxt) - set(prev))
            return moved

        assert churn(sequential) >= churn(locality)


class TestPlacementErrors:
    def test_oversized_wave_rejected(self, planned):
        cluster, metagraph, schedule = planned
        placer = LocalityAwarePlacer(cluster)
        # Corrupt a wave entry to request more devices than the cluster has.
        wave = schedule.waves[0]
        wave.entries[0].n_devices = cluster.num_devices + 1
        with pytest.raises(PlacementError):
            placer.place([wave], metagraph)


# ------------------------------------------------------- free-slot index


@st.composite
def index_cases(draw):
    """An irregular, possibly mixed-spec cluster mid-wave, and one entry.

    Devices are taken in random chunks, so the per-island free lists went
    through the same incremental updates as during a real placement.
    """
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=10))
    specs = draw(
        st.lists(
            st.sampled_from([A800_SPEC, TEST_GPU_SPEC]),
            min_size=len(sizes),
            max_size=len(sizes),
        )
    )
    cluster = ClusterTopology(
        num_nodes=len(sizes),
        devices_per_node=max(sizes),
        island_sizes=tuple(sizes),
        node_specs=tuple(specs),
    )
    ids = st.integers(0, cluster.num_devices - 1)
    busy = draw(st.lists(st.lists(ids, min_size=1, max_size=6), max_size=6))
    # Duplicates are the norm: a previous slice and several predecessors
    # can all suggest the same devices.
    preferred = draw(st.lists(ids, max_size=3 * cluster.num_devices))
    spec_class = draw(
        st.none() | st.sampled_from([cls.index for cls in cluster.spec_classes()])
    )
    n = draw(st.integers(1, cluster.num_devices))
    entry = WaveEntry(metaop_index=0, n_devices=n, layers=1, duration=1.0, spec_class=spec_class)
    return cluster, busy, preferred, entry


class TestFreeSlotIndex:
    @settings(max_examples=300, deadline=None)
    @given(index_cases())
    def test_indexed_candidates_equal_reference_scan(self, case):
        cluster, busy, preferred, entry = case
        free = _FreeSlots(cluster)
        for chunk in busy:
            free.take(tuple(dict.fromkeys(chunk)))
        placer = LocalityAwarePlacer(cluster)
        reference = placer._candidate_blocks(entry, set(free.devices), list(preferred))
        assert placer._indexed_candidate_blocks(entry, free, list(preferred)) == reference

    @settings(max_examples=100, deadline=None)
    @given(index_cases())
    def test_free_lists_track_the_free_set(self, case):
        cluster, busy, _, _ = case
        free = _FreeSlots(cluster)
        for chunk in busy:
            free.take(tuple(dict.fromkeys(chunk)))
        assert [d for group in free.by_island for d in group] == sorted(free.devices)
        for island, group in enumerate(free.by_island):
            assert all(cluster.island_of(d) == island for d in group)
