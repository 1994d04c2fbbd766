"""User-facing task definition API (``SpindleTask`` and ``add_flow``).

The paper (§4) describes a "simple, user-friendly and flexible API for defining
MT MM training workloads": training tasks are represented as ``SpindleTask``
objects and the user connects model components through an ``add_flow`` API.
This module reproduces that interface.  A task is a small graph of *modules*
(each module is an ordered chain of operators, e.g. the 32 layers of a vision
encoder); ``add_flow`` wires modules together, and :meth:`SpindleTask.build_graph`
lowers the task to the operator-level :class:`~repro.graph.graph.ComputationGraph`
consumed by the execution planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.graph.graph import ComputationGraph, GraphError
from repro.graph.ops import Operator


class TaskError(Exception):
    """Raised for malformed task definitions."""


@dataclass
class ModuleSpec:
    """A named chain of operators inside a :class:`SpindleTask`.

    Operators in a module are executed sequentially (layer after layer); the
    chain is materialised as a path in the task's computation graph.
    """

    name: str
    operators: list[Operator] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise TaskError("Module name must be non-empty")
        if not self.operators:
            raise TaskError(f"Module {self.name!r} must contain at least one operator")

    @property
    def first(self) -> Operator:
        return self.operators[0]

    @property
    def last(self) -> Operator:
        return self.operators[-1]

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    @property
    def flops(self) -> float:
        return sum(op.flops for op in self.operators)

    @property
    def param_bytes(self) -> float:
        return sum(op.param_bytes for op in self.operators)


class SpindleTask:
    """A single multi-modal training task.

    Example
    -------
    >>> task = SpindleTask("image_captioning", batch_size=8)
    >>> task.add_module("vision_encoder", vision_ops)
    >>> task.add_module("language_model", lm_ops)
    >>> task.add_flow("vision_encoder", "language_model")
    >>> graph = task.build_graph()

    ``version`` counts in-place edits (``batch_size``/``weight`` assignments,
    :meth:`add_module`, :meth:`add_flow`), so identity-keyed memos can tell a
    resubmitted task object apart from the one they saw before.
    """

    def __init__(self, name: str, batch_size: int = 1, weight: float = 1.0) -> None:
        if not name:
            raise TaskError("Task name must be non-empty")
        if batch_size <= 0:
            raise TaskError("Task batch size must be positive")
        self.version = 0
        self.name = name
        self.batch_size = batch_size
        self.weight = weight
        self._modules: dict[str, ModuleSpec] = {}
        self._flows: list[tuple[str, str, Optional[float]]] = []

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @batch_size.setter
    def batch_size(self, value: int) -> None:
        self._batch_size = int(value)
        self.version += 1

    @property
    def weight(self) -> float:
        return self._weight

    @weight.setter
    def weight(self, value: float) -> None:
        self._weight = float(value)
        self.version += 1

    # ---------------------------------------------------------------- modules
    def add_module(self, name: str, operators: Iterable[Operator]) -> ModuleSpec:
        """Register a module (ordered operator chain) under ``name``."""
        if name in self._modules:
            raise TaskError(f"Duplicate module {name!r} in task {self.name!r}")
        ops = list(operators)
        for op in ops:
            if op.task != self.name:
                raise TaskError(
                    f"Operator {op.name!r} belongs to task {op.task!r}, "
                    f"cannot be added to task {self.name!r}"
                )
        module = ModuleSpec(name=name, operators=ops)
        self._modules[name] = module
        self.version += 1
        return module

    def module(self, name: str) -> ModuleSpec:
        try:
            return self._modules[name]
        except KeyError as exc:
            raise TaskError(f"Task {self.name!r} has no module {name!r}") from exc

    @property
    def modules(self) -> dict[str, ModuleSpec]:
        return self._modules

    @property
    def module_names(self) -> list[str]:
        return list(self._modules)

    # ------------------------------------------------------------------ flows
    def add_flow(
        self, src_module: str, dst_module: str, volume_bytes: Optional[float] = None
    ) -> None:
        """Connect the output of ``src_module`` to the input of ``dst_module``."""
        if src_module not in self._modules:
            raise TaskError(f"Unknown source module {src_module!r}")
        if dst_module not in self._modules:
            raise TaskError(f"Unknown destination module {dst_module!r}")
        if src_module == dst_module:
            raise TaskError("A module cannot flow into itself")
        self._flows.append((src_module, dst_module, volume_bytes))
        self.version += 1

    @property
    def flows(self) -> list[tuple[str, str, Optional[float]]]:
        return list(self._flows)

    # ------------------------------------------------------------- aggregates
    @property
    def operators(self) -> list[Operator]:
        ops: list[Operator] = []
        for module in self._modules.values():
            ops.extend(module.operators)
        return ops

    @property
    def num_operators(self) -> int:
        return sum(m.num_operators for m in self._modules.values())

    @property
    def flops(self) -> float:
        return sum(m.flops for m in self._modules.values())

    @property
    def param_bytes(self) -> float:
        return sum(m.param_bytes for m in self._modules.values())

    @property
    def modalities(self) -> list[str]:
        seen: dict[str, None] = {}
        for op in self.operators:
            seen.setdefault(op.modality, None)
        return list(seen)

    # ------------------------------------------------------------------ lower
    def build_graph(self) -> ComputationGraph:
        """Lower the task definition to an operator-level computation graph."""
        if not self._modules:
            raise TaskError(f"Task {self.name!r} has no modules")
        graph = ComputationGraph()
        for module in self._modules.values():
            for op in module.operators:
                graph.add_operator(op)
            for prev, nxt in zip(module.operators, module.operators[1:]):
                graph.add_flow(prev.name, nxt.name)
        for src_module, dst_module, volume in self._flows:
            src_op = self._modules[src_module].last
            dst_op = self._modules[dst_module].first
            try:
                graph.add_flow(src_op.name, dst_op.name, volume)
            except GraphError as exc:
                raise TaskError(
                    f"Invalid flow {src_module!r} -> {dst_module!r} in task "
                    f"{self.name!r}: {exc}"
                ) from exc
        graph.validate()
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpindleTask(name={self.name!r}, modules={len(self._modules)}, "
            f"operators={self.num_operators}, batch_size={self.batch_size})"
        )
