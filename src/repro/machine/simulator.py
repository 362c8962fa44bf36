"""The per-node clock simulator and the figure-level driver.

:class:`MachineSimulator` replays per-task :class:`TaskCost` records onto
simulated node clocks; :func:`simulate_app` is the top-level driver used by
the benchmarks: build an application at ``pieces == nodes`` (weak scaling),
run its task stream through a real :class:`~repro.runtime.context.Runtime`
with cost recording, and account every launch at its origin node.

Ownership of distributed objects
--------------------------------
* the naive painter's global history and the region tree's root node live
  at the control node (they are mutable, so they cannot be replicated —
  section 5.1 explains this is the painter's scaling flaw);
* region-tree subregions are distributed round-robin by their index within
  their partition (piece *i* of the primary partition lives on node *i*);
* equivalence sets live where their data lives: block-owner of the first
  element of their domain (section 6.1/7.1 distribute them for locality);
* composite views are owned by the node that constructed them (they have a
  single logical root, section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import MachineError
from repro.machine.costmodel import CostModel
from repro.machine.dcr import ShardingFunctor, control_node, dcr_sharding
from repro.machine.topology import MachineSpec
from repro.regions.tree import RegionTree
from repro.runtime.context import Runtime
from repro.visibility.meter import TaskCost

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import Application

#: Weighted analysis ops charged per subregion when partitions are built.
PARTITION_SETUP_OPS = 50.0


class MachineSimulator:
    """Per-node clocks advanced by real metered analysis work."""

    def __init__(self, spec: MachineSpec, tree: RegionTree,
                 cost_model: Optional[CostModel] = None) -> None:
        self.spec = spec
        self.tree = tree
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.clocks = np.zeros(spec.nodes)
        self._exec_load = np.zeros(spec.nodes)
        self._epoch_start = 0.0
        self._owners: dict[Hashable, int] = {}
        self._region_owner = self._assign_region_owners(tree, spec.nodes)
        self.messages_sent = 0
        self.root_size = tree.root.space.size

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    @staticmethod
    def _assign_region_owners(tree: RegionTree, nodes: int) -> dict[int, int]:
        owners: dict[int, int] = {tree.root.uid: 0}
        for region in tree.walk():
            if region.is_root:
                continue
            part = region.parent_partition
            assert part is not None
            index = part.subregions.index(region)
            owners[region.uid] = index % nodes
        return owners

    def owner_of(self, key: Hashable, origin: int) -> int:
        """Owner node of a distributed object's touch key."""
        cached = self._owners.get(key)
        if cached is not None:
            return cached
        kind = key[0] if isinstance(key, tuple) else key
        if kind == "painter_history":
            owner = 0
        elif kind == "treenode":
            # regions created after simulator construction get hashed
            owner = self._region_owner.get(key[1], key[1] % self.spec.nodes)
        elif kind == "eqset":
            # spatial block owner of the set's first element
            lo = key[2] if len(key) > 2 else 0
            owner = min(self.spec.nodes - 1,
                        int(lo * self.spec.nodes // max(1, self.root_size)))
        elif kind == "view":
            owner = origin  # constructed (and rooted) at the analyzing node
        else:
            owner = 0
        self._owners[key] = owner
        return owner

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def process_task(self, cost: TaskCost, origin: int,
                     exec_node: Optional[int],
                     data_bytes: int = 0) -> None:
        """Charge one task launch's analysis at ``origin`` and its
        execution (plus ``data_bytes`` of region-argument movement over the
        node's link) at ``exec_node``."""
        if origin >= self.spec.nodes:
            raise MachineError(f"origin node {origin} out of range")
        spec = self.spec
        t = (self.clocks[origin] + spec.launch_overhead
             + self.cost_model.seconds(cost, spec.analysis_op))
        for key in cost.touches:
            owner = self.owner_of(key, origin)
            if owner != origin:
                self.messages_sent += 1
                t += spec.message_send
                arrival = t + spec.latency
                # serialized handling at the owner — the bottleneck queue
                self.clocks[owner] = max(self.clocks[owner],
                                         arrival) + spec.message_serve
        self.clocks[origin] = t
        if exec_node is not None and exec_node < spec.nodes:
            self._exec_load[exec_node] += spec.task_run \
                + data_bytes / spec.bandwidth

    def charge_setup(self, objects: int, distributed: bool) -> None:
        """Charge partition/region construction work (``objects`` subregions
        or similar units), centralized or spread across nodes."""
        seconds = objects * PARTITION_SETUP_OPS * self.spec.analysis_op
        if distributed:
            self.clocks += seconds / self.spec.nodes
        else:
            self.clocks[0] += seconds

    # ------------------------------------------------------------------
    # epochs (application loop iterations)
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Open one top-level loop iteration."""
        self._epoch_start = float(self.clocks.max())
        self.clocks[:] = self._epoch_start
        self._exec_load[:] = 0.0

    def utilization(self) -> dict[str, np.ndarray]:
        """Per-node load snapshot of the current epoch (diagnostics).

        Returns the analysis seconds accumulated since :meth:`begin_epoch`
        and the execution-pipeline seconds, per node — the two quantities
        :meth:`end_epoch` takes the max of.
        """
        return {
            "analysis": self.clocks - self._epoch_start,
            "execution": self._exec_load.copy(),
        }

    def end_epoch(self, synchronized: bool = False) -> float:
        """Close the iteration; returns its elapsed wall-clock time.

        Analysis and execution pipeline within a node, so a node's busy
        time is the max of the two; the iteration ends when the slowest
        node finishes (the apps carry cross-iteration dependences).  With
        DCR an additional logarithmic collective synchronizes the shards.
        """
        analysis = self.clocks - self._epoch_start
        busy = np.maximum(analysis, self._exec_load)
        elapsed = float(busy.max())
        if synchronized and self.spec.nodes > 1:
            elapsed += self.spec.collective_base * math.log2(self.spec.nodes)
        self.clocks[:] = self._epoch_start + elapsed
        return elapsed


@dataclass(frozen=True)
class SimResult:
    """One simulated run, in the artifact's measurement schema."""

    system: str            # e.g. "raycast_dcr" / "paint_nodcr"
    nodes: int
    init_time: float       # application start → end of first iteration
    elapsed_time: float    # steady-state time for `iterations` iterations
    iterations: int
    units_per_piece: int   # points / wires / zones per node
    messages: int

    @property
    def steady_per_iteration(self) -> float:
        """Steady-state seconds per application iteration."""
        return self.elapsed_time / max(1, self.iterations)

    @property
    def throughput_per_node(self) -> float:
        """Weak-scaling units processed per second per node."""
        return self.units_per_piece / self.steady_per_iteration


def simulate_app(app: "Application", algorithm: str, *,
                 dcr: bool = False,
                 steady_iterations: int = 3,
                 spec: Optional[MachineSpec] = None,
                 cost_model: Optional[CostModel] = None) -> SimResult:
    """Run one application configuration through the simulator.

    The application must have been built with ``pieces == nodes`` (weak
    scaling); the analysis itself is executed for real by the chosen
    algorithm, and its metered per-task costs drive the simulated clocks.
    The clocks read nothing else: the runtime is analysis-only.
    """
    nodes = app.pieces
    spec = (spec if spec is not None else MachineSpec()).with_nodes(nodes)
    if algorithm == "painter" and dcr:
        raise MachineError(
            "the painter implementation predates DCR (paper section 8)")

    runtime = Runtime(app.tree, None, algorithm=algorithm,
                      record_costs=True)
    sim = MachineSimulator(spec, app.tree, cost_model)
    shard: ShardingFunctor = dcr_sharding(nodes) if dcr else control_node

    def run_stream(stream) -> None:
        for task in stream:
            runtime.launch(task.name, task.requirements, None, task.point)
            cost = runtime.cost_log[-1]
            exec_node = None if task.point is None else task.point % nodes
            arg_bytes = 8 * sum(r.region.space.size
                                for r in task.requirements)
            sim.process_task(cost, shard(task), exec_node,
                             data_bytes=arg_bytes)

    # --- initialization: setup + init stream + first loop iteration -----
    sim.begin_epoch()
    sim.charge_setup(app.setup_objects(), distributed=dcr)
    run_stream(app.init_stream())
    run_stream(app.iteration_stream())
    init_time = sim.end_epoch(synchronized=dcr)

    # --- steady state ----------------------------------------------------
    elapsed = 0.0
    for _ in range(steady_iterations):
        sim.begin_epoch()
        run_stream(app.iteration_stream())
        elapsed += sim.end_epoch(synchronized=dcr)

    system = f"{algorithm}_{'dcr' if dcr else 'nodcr'}"
    return SimResult(system=system, nodes=nodes, init_time=init_time,
                     elapsed_time=elapsed, iterations=steady_iterations,
                     units_per_piece=app.units_per_piece,
                     messages=sim.messages_sent)
