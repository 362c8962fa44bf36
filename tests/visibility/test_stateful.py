"""Stateful property test: the runtime tracks the reference *continuously*.

A hypothesis rule-based state machine drives five runtimes (one per
algorithm), two :class:`ShardedRuntime` instances (2 and 4 shards, with
replica verification on), and the sequential reference executor through
an arbitrary interleaving of task launches, partition creations, and
observations; after *every* step the observable state must agree.  This
catches bugs that only appear under unusual interleavings (e.g. reading
between a reduction and the next write, or partitioning mid-stream) —
and, for the sharded runtimes, any step-granular divergence between the
distributed owner-map execution and sequential semantics.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, initialize,
                                 invariant, rule)
from hypothesis import strategies as st

from repro import (ALGORITHMS, READ, READ_WRITE, IndexSpace,
                   RegionRequirement, RegionTree, Runtime, TaskStream, reduce)
from repro.distributed import ShardedRuntime
from repro.runtime.executor import SequentialExecutor
from repro.runtime.task import Task

N = 24
SHARD_COUNTS = (2, 4)


class RuntimeVsReference(RuleBasedStateMachine):
    regions = Bundle("regions")

    @initialize(target=regions)
    def setup(self):
        self.tree = RegionTree(N, {"x": np.int64, "y": np.int64})
        initial = {"x": np.arange(N, dtype=np.int64),
                   "y": np.arange(N, dtype=np.int64) * 3}
        self.reference = SequentialExecutor(self.tree, initial)
        self.runtimes = {name: Runtime(self.tree, initial, algorithm=name)
                         for name in ALGORITHMS}
        self.sharded = {shards: ShardedRuntime(self.tree, initial,
                                               shards=shards)
                        for shards in SHARD_COUNTS}
        self.counter = 0
        self.part_counter = 0
        return self.tree.root

    def _run_sharded(self, name, reqs, body):
        """Feed one task through every sharded runtime; the point spreads
        consecutive tasks across shards via the canonical functor."""
        for srt in self.sharded.values():
            stream = TaskStream()
            stream.append(name, reqs, body, point=self.counter)
            srt.execute(stream)  # verifies replica agreement per step

    # ------------------------------------------------------------------
    @rule(target=regions, region=regions,
          data=st.data())
    def create_partition(self, region, data):
        if region.space.size < 2 or len(region.partitions) >= 2:
            return region
        self.part_counter += 1
        k = data.draw(st.integers(1, 3))
        subs = []
        for _ in range(k):
            size = data.draw(st.integers(1, region.space.size))
            start = data.draw(st.integers(0, region.space.size - size))
            subs.append(IndexSpace(region.space.indices[start:start + size],
                                   trusted=True))
        part = region.create_partition(f"p{self.part_counter}", subs)
        return part.subregions[data.draw(st.integers(0, k - 1))]

    def _privilege_and_body(self, kind, seed):
        if kind == "read":
            return READ, None
        if kind == "write":
            def write_body(arr, seed=seed):
                arr[:] = arr * 2 + seed
            return READ_WRITE, write_body
        if kind == "sum":
            def sum_body(arr, seed=seed):
                arr += seed
            return reduce("sum"), sum_body

        def min_body(arr, seed=seed):
            np.minimum(arr, seed, out=arr)
        return reduce("min"), min_body

    @rule(region=regions,
          field=st.sampled_from(["x", "y"]),
          kind=st.sampled_from(["read", "write", "sum", "min"]))
    def launch(self, region, field, kind):
        self.counter += 1
        seed = self.counter
        privilege, body = self._privilege_and_body(kind, seed)
        reqs = [RegionRequirement(region, field, privilege)]
        self.reference.run(Task(self.counter, f"t{seed}", tuple(reqs), body))
        for rt in self.runtimes.values():
            rt.launch(f"t{seed}", reqs, body)
        self._run_sharded(f"t{seed}", reqs, body)

    @rule(region=regions,
          kind_x=st.sampled_from(["read", "write", "sum", "min"]),
          kind_y=st.sampled_from(["read", "write", "sum", "min"]))
    def launch_two_fields(self, region, kind_x, kind_y):
        """A task touching both fields of the same region at once."""
        self.counter += 1
        seed = self.counter
        px, bx = self._privilege_and_body(kind_x, seed)
        py, by = self._privilege_and_body(kind_y, seed + 1)

        def body(arr_x, arr_y):
            if bx is not None:
                bx(arr_x)
            if by is not None:
                by(arr_y)
        reqs = [RegionRequirement(region, "x", px),
                RegionRequirement(region, "y", py)]
        self.reference.run(Task(self.counter, f"m{seed}", tuple(reqs), body))
        for rt in self.runtimes.values():
            rt.launch(f"m{seed}", reqs, body)
        self._run_sharded(f"m{seed}", reqs, body)

    @rule(data=st.data(),
          field=st.sampled_from(["x", "y"]),
          kind=st.sampled_from(["read", "sum"]))
    def launch_multibucket(self, data, field, kind):
        """A task over a wide window straddling several pieces: drives the
        bucket store's multi-bucket carving (``_localize``) path."""
        if len(self.tree.root.partitions) >= 6:
            return
        size = data.draw(st.integers(N // 2, N))
        start = data.draw(st.integers(0, N - size))
        self.part_counter += 1
        part = self.tree.root.create_partition(
            f"w{self.part_counter}",
            [IndexSpace.from_range(start, start + size)])
        region = part.subregions[0]
        self.counter += 1
        seed = self.counter
        privilege, body = self._privilege_and_body(kind, seed)
        reqs = [RegionRequirement(region, field, privilege)]
        self.reference.run(Task(self.counter, f"w{seed}", tuple(reqs), body))
        for rt in self.runtimes.values():
            rt.launch(f"w{seed}", reqs, body)
        self._run_sharded(f"w{seed}", reqs, body)

    # ------------------------------------------------------------------
    @invariant()
    def all_agree_with_reference(self):
        if not hasattr(self, "reference"):
            return
        for field in ("x", "y"):
            want = self.reference.field(field)
            for name, rt in self.runtimes.items():
                got = rt.read_field(field)
                assert np.array_equal(got, want), (name, field, got, want)
            for shards, srt in self.sharded.items():
                got = srt.gather_field(field)
                assert np.array_equal(got, want), \
                    (f"{shards} shards", field, got, want)

    @invariant()
    def structural_invariants_hold(self):
        if not hasattr(self, "runtimes"):
            return
        for rt in self.runtimes.values():
            for field in ("x", "y"):
                rt.algorithm_for(field).check_invariants()

    @invariant()
    def precedence_closure_holds(self):
        """The closure helpers stay exact under arbitrary interleavings:
        ``(a, newest)`` is covered for exactly the newest task's
        ancestors, and levels respect every recorded edge."""
        if not hasattr(self, "runtimes"):
            return
        graph = self.runtimes["raycast"].graph
        if len(graph) == 0:
            return
        newest = graph.task_ids[-1]
        ancestors = graph.ancestors_of(newest)
        assert graph.contains_transitively((a, newest) for a in ancestors)
        assert graph.missing_pairs((a, newest) for a in graph.task_ids) == \
            [(a, newest) for a in graph.task_ids if a not in ancestors]
        levels = graph.levels()
        for dep in graph.dependences_of(newest):
            assert levels[dep] < levels[newest]


RuntimeVsReference.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20)
TestRuntimeVsReference = RuntimeVsReference.TestCase
