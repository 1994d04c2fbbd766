"""Device placement: mapping wave entries to physical devices (§3.5).

The locality-aware placer follows the paper's three guidelines:

* **Intra-device-island placement** — MetaOps and the data flows between them
  prefer devices inside one island (NVLink-connected node).
* **Prioritising high communication workloads** — when not everything fits
  inside an island, the MetaOps with the largest inter-wave data-flow volume
  get the best locality.
* **Device memory balance** — parameter/optimizer state and retained
  activations are tracked per device; placement prefers the devices with the
  most free memory and falls back to alternative (less local) placements, with
  bounded backtracking, when a device would run out of memory.

Candidate device blocks come from a per-wave free-slot index: one ascending
free list per island, updated only for the islands an entry takes devices
from.  The original scan over every island and the sorted free set is kept as
the reference path (``optimized=False``) that equivalence tests compare the
index against.

A deliberately naive :class:`SequentialPlacer` is provided for the placement
ablation of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.metagraph import MetaGraph
from repro.core.plan import PlacementResult, Wave, WaveEntry
from repro.costmodel.comm import group_transfer_time
from repro.costmodel.memory import MemoryModel


class PlacementError(Exception):
    """Raised when no feasible placement exists."""


@dataclass
class _DeviceState:
    """Mutable per-device bookkeeping during placement."""

    memory_bytes: float = 0.0
    param_keys: set[str] = field(default_factory=set)


class _FreeSlots:
    """The free devices of one wave: a set, plus one free list per island.

    Each island's list holds its free devices in ascending id order.  The
    topology numbers every island's devices as one contiguous ascending id
    range, in island order, so walking the lists island by island visits
    free devices in ascending id order: the index never sorts.
    """

    def __init__(self, cluster: ClusterTopology) -> None:
        self.devices = set(range(cluster.num_devices))
        self.by_island = cluster.islands()
        self._island_of = cluster.island_of

    def take(self, devices: tuple[int, ...]) -> None:
        """Mark ``devices`` busy, rebuilding only the islands they sit in."""
        free = self.devices
        free.difference_update(devices)
        for island in set(map(self._island_of, devices)):
            self.by_island[island] = [d for d in self.by_island[island] if d in free]


class LocalityAwarePlacer:
    """Greedy, wave-by-wave locality- and memory-aware device placement."""

    def __init__(
        self,
        cluster: ClusterTopology,
        memory_model: MemoryModel | None = None,
        memory_weight: float = 0.15,
        max_backtracks: int = 32,
        optimized: bool = True,
    ) -> None:
        """``optimized`` enumerates candidate blocks from the per-island free
        lists; ``False`` runs the reference scan over every island and the
        sorted free set.  Both yield the same candidates in the same order."""
        self.cluster = cluster
        self.memory_model = memory_model or MemoryModel()
        self.memory_weight = memory_weight
        self.max_backtracks = max_backtracks
        self.optimized = optimized
        # Per-device capacity checks are only needed on mixed-HBM clusters;
        # the homogeneous fast path keeps the scoring loop a single compare.
        self._homogeneous = cluster.is_homogeneous
        # Spec-class device pools: entries carrying a spec-class assignment
        # must be placed inside their class's islands (the scheduler budgeted
        # the class's devices for them, and their pacing assumes the class's
        # sustained rate).  Homogeneous plans never set spec_class, so these
        # pools go unused there.
        self._class_devices = {
            cls.index: frozenset(cls.device_ids) for cls in cluster.spec_classes()
        }
        self._class_islands = {
            cls.index: cls.islands for cls in cluster.spec_classes()
        }
        # No island block can serve an entry wider than the largest island.
        self._max_island_size = max(len(group) for group in cluster.islands())

    # ------------------------------------------------------------- public API
    def place(self, waves: Sequence[Wave], metagraph: MetaGraph) -> PlacementResult:
        result = PlacementResult()
        states = {
            device.device_id: _DeviceState(
                memory_bytes=self.memory_model.framework_overhead()
            )
            for device in self.cluster.devices
        }
        last_devices: dict[int, tuple[int, ...]] = {}

        for wave in waves:
            free = _FreeSlots(self.cluster)
            entries = sorted(
                wave.entries,
                key=lambda e: self._communication_priority(e, metagraph, last_devices),
                reverse=True,
            )
            for entry in entries:
                devices = self._place_entry(
                    entry, wave, metagraph, free, states, last_devices, result
                )
                entry.devices = devices
                result.assignments[(wave.index, entry.metaop_index)] = devices
                free.take(devices)
                last_devices[entry.metaop_index] = devices
                self._charge_memory(entry, devices, metagraph, states)

        result.device_memory_bytes = {
            device_id: state.memory_bytes for device_id, state in states.items()
        }
        return result

    # -------------------------------------------------------------- heuristics
    def _communication_priority(
        self,
        entry: WaveEntry,
        metagraph: MetaGraph,
        last_devices: dict[int, tuple[int, ...]],
    ) -> float:
        metaop = metagraph.metaop(entry.metaop_index)
        volume = 0.0
        if entry.metaop_index in last_devices:
            # Residual slice of the same MetaOp: activations of the previous
            # slice flow into this one.
            volume += metaop.representative.activation_bytes
        for pred in metagraph.predecessors(entry.metaop_index):
            if pred in last_devices:
                volume += metagraph.edge_volume(pred, entry.metaop_index)
        return volume

    def _candidate_blocks(
        self,
        entry: WaveEntry,
        free: set[int],
        preferred: list[int],
    ) -> list[tuple[int, ...]]:
        """Enumerate candidate device groups for an entry, best-first.

        Entries bound to a spec class only see that class's islands and
        devices; classic entries see the whole cluster.
        """
        n = entry.n_devices
        candidates: list[tuple[int, ...]] = []

        if entry.spec_class is not None:
            allowed = self._class_devices[entry.spec_class]
            free = {d for d in free if d in allowed}
            preferred = [d for d in preferred if d in allowed]
            island_pool: Sequence[int] = self._class_islands[entry.spec_class]
        else:
            island_pool = range(self.cluster.num_nodes)

        # Preferred devices may be suggested by several sources (previous slice
        # of the same MetaOp, several predecessors); keep first occurrences.
        preferred = list(dict.fromkeys(preferred))
        preferred_free = [d for d in preferred if d in free]
        if len(preferred_free) >= n:
            candidates.append(tuple(preferred_free[:n]))

        preferred_islands = {self.cluster.island_of(d) for d in preferred}
        islands = sorted(
            island_pool,
            key=lambda i: (i not in preferred_islands, i),
        )
        for island in islands:
            island_free = [d for d in self.cluster.island_devices(island) if d in free]
            if len(island_free) >= n:
                candidates.append(tuple(island_free[:n]))
        spill = sorted(free)
        if len(spill) >= n:
            # Prefer spilling devices from preferred islands first.
            spill.sort(key=lambda d: (self.cluster.island_of(d) not in preferred_islands, d))
            candidates.append(tuple(spill[:n]))
        # Deduplicate while preserving order.
        unique: list[tuple[int, ...]] = []
        seen = set()
        for cand in candidates:
            if cand not in seen:
                unique.append(cand)
                seen.add(cand)
        return unique

    def _indexed_candidate_blocks(
        self,
        entry: WaveEntry,
        free: _FreeSlots,
        preferred: list[int],
    ) -> list[tuple[int, ...]]:
        """:meth:`_candidate_blocks` read off the per-island free lists.

        Islands are visited preferred first, then the rest, each group in
        ascending order; that is the reference's island order, and, by the
        topology's contiguous numbering, its spill order too.
        """
        n = entry.n_devices
        if entry.spec_class is not None:
            allowed = self._class_devices[entry.spec_class]
            preferred = [d for d in preferred if d in allowed]
            island_pool: Sequence[int] = self._class_islands[entry.spec_class]
        else:
            island_pool = range(self.cluster.num_nodes)

        candidates: list[tuple[int, ...]] = []
        preferred = list(dict.fromkeys(preferred))
        preferred_free = [d for d in preferred if d in free.devices]
        if len(preferred_free) >= n:
            candidates.append(tuple(preferred_free[:n]))

        preferred_islands = set(map(self.cluster.island_of, preferred))
        first = sorted(preferred_islands)

        def island_order() -> Iterator[int]:
            yield from first
            for island in island_pool:
                if island not in preferred_islands:
                    yield island

        by_island = free.by_island
        if n <= self._max_island_size:
            for island in island_order():
                island_free = by_island[island]
                if len(island_free) >= n:
                    candidates.append(tuple(island_free[:n]))
        spill: list[int] = []
        for island in island_order():
            spill.extend(by_island[island][: n - len(spill)])
            if len(spill) == n:
                candidates.append(tuple(spill))
                break
        return list(dict.fromkeys(candidates))

    def _place_entry(
        self,
        entry: WaveEntry,
        wave: Wave,
        metagraph: MetaGraph,
        free: _FreeSlots,
        states: dict[int, _DeviceState],
        last_devices: dict[int, tuple[int, ...]],
        result: PlacementResult,
    ) -> tuple[int, ...]:
        if len(free.devices) < entry.n_devices:
            raise PlacementError(
                f"Wave {wave.index}: MetaOp {entry.metaop_index} needs "
                f"{entry.n_devices} devices but only {len(free.devices)} are free"
            )
        metaop = metagraph.metaop(entry.metaop_index)
        preferred: list[int] = list(last_devices.get(entry.metaop_index, ()))
        for pred in metagraph.predecessors(entry.metaop_index):
            preferred.extend(last_devices.get(pred, ()))

        if self.optimized:
            candidates = self._indexed_candidate_blocks(entry, free, preferred)
        else:
            candidates = self._candidate_blocks(entry, free.devices, preferred)
        if not candidates:
            raise PlacementError(
                f"No candidate device block of size {entry.n_devices} for MetaOp "
                f"{entry.metaop_index} in wave {wave.index}"
            )

        scored: list[tuple[float, bool, tuple[int, ...]]] = []
        per_device_bytes = self._entry_device_bytes(entry, metaop)
        # The smallest device normalises the balance score; fit checks run
        # against each device's own capacity on mixed-HBM clusters.  On a
        # homogeneous cluster both reduce to device_spec.memory_bytes and the
        # fit check is the single peak compare this hot loop always had.
        capacity = self.cluster.min_memory_bytes
        for devices in candidates:
            comm = self._transfer_cost(entry, metaop, metagraph, devices, last_devices)
            projected = [states[d].memory_bytes + per_device_bytes for d in devices]
            peak = max(projected)
            if self._homogeneous:
                fits = peak <= capacity
            else:
                fits = all(
                    used <= self.cluster.spec_of(d).memory_bytes
                    for used, d in zip(projected, devices)
                )
            score = comm + self.memory_weight * (peak / capacity) * max(comm, 1e-6)
            scored.append((score, fits, devices))

        feasible = [item for item in scored if item[1]]
        if feasible:
            feasible.sort(key=lambda item: item[0])
            return feasible[0][2]

        # All candidates would exceed memory: record the OOM, pick the one with
        # the lowest projected peak (best memory balance, §3.5 backtracking).
        result.oom_events.append((wave.index, entry.metaop_index))
        result.backtracks += 1
        if result.backtracks > self.max_backtracks:
            raise PlacementError(
                "Exceeded backtracking budget while balancing device memory"
            )
        best = min(
            scored,
            key=lambda item: max(
                states[d].memory_bytes + per_device_bytes for d in item[2]
            ),
        )
        return best[2]

    def _transfer_cost(
        self,
        entry: WaveEntry,
        metaop,
        metagraph: MetaGraph,
        devices: tuple[int, ...],
        last_devices: dict[int, tuple[int, ...]],
    ) -> float:
        cost = 0.0
        prev = last_devices.get(entry.metaop_index)
        if prev:
            cost += group_transfer_time(
                self.cluster, prev, devices, metaop.representative.activation_bytes
            )
        for pred in metagraph.predecessors(entry.metaop_index):
            pred_devices = last_devices.get(pred)
            if pred_devices:
                cost += group_transfer_time(
                    self.cluster,
                    pred_devices,
                    devices,
                    metagraph.edge_volume(pred, entry.metaop_index),
                )
        return cost

    def _entry_device_bytes(self, entry: WaveEntry, metaop) -> float:
        op = metaop.representative
        per_layer = self.memory_model.operator_device_bytes(op, entry.n_devices)
        return per_layer * entry.layers

    def _charge_memory(
        self,
        entry: WaveEntry,
        devices: tuple[int, ...],
        metagraph: MetaGraph,
        states: dict[int, _DeviceState],
    ) -> None:
        metaop = metagraph.metaop(entry.metaop_index)
        op = metaop.representative
        param_bytes = self.memory_model.parameter_state_bytes(op, entry.n_devices)
        act_bytes = self.memory_model.activation_bytes(op, entry.n_devices)
        key = op.param_key
        for device in devices:
            state = states[device]
            # Parameters shared across tasks (same param_key) are stored once
            # per device; activations accumulate for every executed layer.
            if key is None or key not in state.param_keys:
                state.memory_bytes += param_bytes * entry.layers
                if key is not None:
                    state.param_keys.add(key)
            state.memory_bytes += act_bytes * entry.layers


class SequentialPlacer:
    """Naive placement baseline for the Fig. 10 ablation.

    Assigns each wave entry a block of consecutive device ids starting from
    device 0 in MetaOp-index order, ignoring where previous waves placed the
    same MetaOp and ignoring island boundaries.
    """

    def __init__(
        self, cluster: ClusterTopology, memory_model: MemoryModel | None = None
    ) -> None:
        self.cluster = cluster
        self.memory_model = memory_model or MemoryModel()

    def place(self, waves: Sequence[Wave], metagraph: MetaGraph) -> PlacementResult:
        result = PlacementResult()
        memory = {
            device.device_id: self.memory_model.framework_overhead()
            for device in self.cluster.devices
        }
        for wave in waves:
            cursor = 0
            for entry in sorted(wave.entries, key=lambda e: e.metaop_index):
                devices = tuple(range(cursor, cursor + entry.n_devices))
                if cursor + entry.n_devices > self.cluster.num_devices:
                    raise PlacementError(
                        f"Wave {wave.index} does not fit on the cluster"
                    )
                cursor += entry.n_devices
                entry.devices = devices
                result.assignments[(wave.index, entry.metaop_index)] = devices
                op = metagraph.metaop(entry.metaop_index).representative
                per_device = (
                    self.memory_model.operator_device_bytes(op, entry.n_devices)
                    * entry.layers
                )
                for device in devices:
                    memory[device] += per_device
        result.device_memory_bytes = memory
        return result
