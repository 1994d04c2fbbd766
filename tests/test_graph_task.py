"""Unit tests for SpindleTask, ModuleSpec and the add_flow API."""

import pytest

from repro.graph.task import ModuleSpec, SpindleTask, TaskError
from tests.conftest import make_chain_task, make_layer_op


class TestModuleSpec:
    def test_aggregates(self):
        ops = [make_layer_op(f"t.m.{i}", task="t") for i in range(3)]
        module = ModuleSpec(name="m", operators=ops)
        assert module.num_operators == 3
        assert module.first is ops[0]
        assert module.last is ops[-1]
        assert module.flops == pytest.approx(sum(o.flops for o in ops))
        assert module.param_bytes == pytest.approx(sum(o.param_bytes for o in ops))

    def test_rejects_empty(self):
        with pytest.raises(TaskError):
            ModuleSpec(name="m", operators=[])
        with pytest.raises(TaskError):
            ModuleSpec(name="", operators=[make_layer_op("t.a", task="t")])


class TestSpindleTask:
    def test_invalid_construction(self):
        with pytest.raises(TaskError):
            SpindleTask("", batch_size=1)
        with pytest.raises(TaskError):
            SpindleTask("t", batch_size=0)

    def test_add_module_and_lookup(self):
        task = SpindleTask("t", batch_size=8)
        ops = [make_layer_op("t.enc.0", task="t")]
        module = task.add_module("enc", ops)
        assert task.module("enc") is module
        assert task.module_names == ["enc"]
        assert task.num_operators == 1

    def test_duplicate_module_rejected(self):
        task = SpindleTask("t")
        task.add_module("enc", [make_layer_op("t.enc.0", task="t")])
        with pytest.raises(TaskError):
            task.add_module("enc", [make_layer_op("t.enc.1", task="t")])

    def test_operator_from_other_task_rejected(self):
        task = SpindleTask("t")
        with pytest.raises(TaskError):
            task.add_module("enc", [make_layer_op("x.enc.0", task="other")])

    def test_add_flow_validates_modules(self):
        task = SpindleTask("t")
        task.add_module("a", [make_layer_op("t.a.0", task="t")])
        with pytest.raises(TaskError):
            task.add_flow("a", "missing")
        with pytest.raises(TaskError):
            task.add_flow("a", "a")

    def test_modalities(self):
        task = make_chain_task("t", {"audio": 2, "text": 1})
        assert task.modalities == ["audio", "text"]

    def test_every_in_place_edit_bumps_the_version(self):
        task = SpindleTask("t", batch_size=8)
        seen = [task.version]
        task.add_module("a", [make_layer_op("t.a.0", task="t")])
        seen.append(task.version)
        task.add_module("b", [make_layer_op("t.b.0", task="t")])
        task.add_flow("a", "b")
        seen.append(task.version)
        task.batch_size *= 2
        seen.append(task.version)
        task.weight = 2.0
        seen.append(task.version)
        assert seen == sorted(set(seen))
        assert (task.batch_size, task.weight) == (16, 2.0)
        # Reads and rejected edits leave the version alone.
        with pytest.raises(TaskError):
            task.add_flow("a", "a")
        task.build_graph()
        assert task.version == seen[-1]


class TestBuildGraph:
    def test_chain_lowering(self):
        task = make_chain_task("t", {"enc": 3, "dec": 2})
        graph = task.build_graph()
        assert graph.num_operators == 5
        # Chain inside modules plus one inter-module flow.
        assert graph.num_flows == 2 + 1 + 1
        assert graph.sources() == ["t.enc.layer0"]
        assert graph.sinks() == ["t.dec.layer1"]

    def test_multi_tower_lowering(self, contrastive_task):
        graph = contrastive_task.build_graph()
        loss = "pairing.loss"
        assert graph.in_degree(loss) == 2
        assert set(graph.sources()) == {"pairing.vision.layer0", "pairing.text.layer0"}

    def test_empty_task_rejected(self):
        with pytest.raises(TaskError):
            SpindleTask("t").build_graph()

    def test_flow_volume_override(self):
        task = SpindleTask("t", batch_size=2)
        task.add_module("a", [make_layer_op("t.a.0", task="t")])
        task.add_module("b", [make_layer_op("t.b.0", task="t")])
        task.add_flow("a", "b", volume_bytes=123.0)
        graph = task.build_graph()
        assert graph.flow("t.a.0", "t.b.0").volume_bytes == 123.0

    def test_cyclic_flows_rejected(self):
        task = SpindleTask("t")
        task.add_module("a", [make_layer_op("t.a.0", task="t")])
        task.add_module("b", [make_layer_op("t.b.0", task="t")])
        task.add_flow("a", "b")
        task.add_flow("b", "a")
        with pytest.raises(TaskError):
            task.build_graph()
