"""Golden plans on large clusters: 256 and 1024 GPUs, many islands.

``tests/data/large_plan_digests.json`` pins, for each problem below, the
digest of the canonical plan document (the serialized plan minus its
wall-clock planning report) and the simulated iteration time.  The values
were captured before the placement pass got its per-island free-slot index
and before the simulator recorded one trace record per device group; both
are pure performance changes, so no digest and no iteration time may move.

The Fig. 8 identity file only reaches 32 GPUs (four islands).  These problems
cover what it cannot: hundreds of islands, nodes of 8 and of 4, mixed-spec
clusters whose wave entries carry spec classes, and irregular island sizes.

Regenerate (only after an intended plan change) with::

    PYTHONPATH=src python -m tests.test_large_plan_identity
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.device import A800_SPEC, DeviceSpec
from repro.cluster.topology import (
    ClusterTopology,
    make_cluster,
    make_heterogeneous_cluster,
)
from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_json
from repro.models import multitask_clip_tasks, ofasys_tasks, qwen_val_tasks
from repro.runtime.engine import RuntimeEngine

GOLDEN = Path(__file__).parent / "data" / "large_plan_digests.json"

MID_SPEC = DeviceSpec(
    name="MidGPU-80GB",
    peak_flops=170e12,
    memory_bytes=A800_SPEC.memory_bytes,
    achievable_fraction=0.55,
)


def _mixed(nodes: int, per_node: int) -> ClusterTopology:
    """Alternating runs of A800 and Mid islands."""
    specs = [A800_SPEC if (node // 3) % 2 == 0 else MID_SPEC for node in range(nodes)]
    return make_heterogeneous_cluster(specs, devices_per_node=per_node)


def _irregular() -> ClusterTopology:
    """32 nominal 8-GPU islands, nine of which lost a device (247 GPUs)."""
    sizes = tuple(8 - (node % 5 == 2) - (node % 11 == 7) for node in range(32))
    return ClusterTopology(num_nodes=32, devices_per_node=8, island_sizes=sizes)


#: name -> builder of (tasks, cluster)
PROBLEMS = {
    "clip-4-256gpu-n8": lambda: (multitask_clip_tasks(4), make_cluster(256)),
    "ofasys-7-256gpu-n4": lambda: (ofasys_tasks(7), make_cluster(256, devices_per_node=4)),
    "clip-10-1024gpu-n8": lambda: (multitask_clip_tasks(10), make_cluster(1024)),
    "qwen10b-3-1024gpu-n4": lambda: (
        qwen_val_tasks(3, "10b"),
        make_cluster(1024, devices_per_node=4),
    ),
    "ofasys-4-256gpu-mixed-n8": lambda: (ofasys_tasks(4), _mixed(32, 8)),
    "clip-7-1024gpu-mixed-n4": lambda: (multitask_clip_tasks(7), _mixed(256, 4)),
    "clip-10-247gpu-irregular": lambda: (multitask_clip_tasks(10), _irregular()),
}


def canonical_digest(payload: str) -> str:
    """Digest of a plan document minus its wall-clock planning report."""
    document = json.loads(payload)
    document.pop("planning_report", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def solve(name: str) -> tuple[dict, set]:
    """Golden record of one problem and the spec classes its entries carry."""
    tasks, cluster = PROBLEMS[name]()
    plan = ExecutionPlanner(cluster).plan(tasks)
    iteration = RuntimeEngine(plan).run_iteration()
    spec_classes = {entry.spec_class for wave in plan.waves for entry in wave.entries}
    record = {
        "plan_sha256": canonical_digest(plan_to_json(plan)),
        "iteration_time": repr(iteration.iteration_time),
    }
    return record, spec_classes


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_problem(golden):
    assert set(golden) == set(PROBLEMS)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_plan_and_iteration_time_match_golden(golden, name):
    record, spec_classes = solve(name)
    assert record == golden[name]
    if "mixed" in name:
        # The mixed-spec problems exercise spec-class-bound placement.
        assert spec_classes - {None}


if __name__ == "__main__":
    records = {name: solve(name)[0] for name in sorted(PROBLEMS)}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}")
