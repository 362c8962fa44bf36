"""Sharded (control-replicated) analysis and execution.

The control-replication contract: ``shards`` replicas each observe the
*entire* task stream and run the full dynamic analysis; a sharding
functor assigns each task to the one shard that executes it.  Because
every replica must independently reach the same dependence conclusions,
:class:`ShardedRuntime` runs the analysis once per shard — serially, on a
thread pool, or on worker processes (see
:mod:`repro.distributed.backends`) — and performs a deterministic-merge
verification: each shard's dependence graph and equivalence-set
refinement trace are hashed, the digests compared, and any divergence
fails fast with a structured per-task diff
(:mod:`repro.distributed.verify`).  That is the determinism obligation
DCR places on the analyses this repository reproduces, converted into an
enforced, observable property (and a strong regression test: any hidden
iteration-order nondeterminism in an algorithm fails the check).

Execution is distributed: each shard owns a local copy of the fields, a
per-element *owner map* records which shard last produced each element,
and a task pulls every input element whose owner differs from its shard
through an explicit message before running (a reduction's, just before its
own scatter).  The step is the reference executor's gather, body and
scatter on the shard's row of each field; the pulls and owners are this
module's.  Tasks execute in program order (this is a correctness- and
communication-level model, not a timing model — the machine simulator
covers timing), so eager pulls see exactly the sequentially-consistent
values; the final distributed state is gathered by owner and compared
against the sequential reference in the tests.  As in DCR, a window's
tasks run while the other replicas analyze it, and a window that fails to
verify (or fails otherwise) rolls back.

Every phase is metered through a :class:`~repro.visibility.meter.PhaseProfile`:
wall-clock analysis time per shard, merge/verify time, bytes shipped to
worker processes, and sharded-execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.distributed.backends import AnalysisBackend, make_backend
from repro.distributed.faults import FaultPlan, RecoveryReport, RetryPolicy
from repro.distributed.verify import ShardReport, check_reports
from repro.errors import MachineError
from repro.machine.dcr import ShardingFunctor, dcr_sharding
from repro.obs import tracer as obs
from repro.regions.tree import RegionTree
from repro.runtime.executor import gather, initial_fields, scatter
from repro.runtime.task import Task, TaskStream, check_tree
from repro.visibility.meter import PhaseProfile


@dataclass
class MessageLog:
    """Point-to-point data movement observed during sharded execution."""

    messages: int = 0
    bytes: int = 0
    by_pair: dict[tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, elements: int,
               itemsize: int) -> None:
        self.messages += 1
        self.bytes += elements * itemsize
        key = (src, dst)
        self.by_pair[key] = self.by_pair.get(key, 0) + elements * itemsize

    def reset(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.by_pair.clear()


class ShardedRuntime:
    """Replicated analysis + sharded execution with explicit messages.

    Parameters
    ----------
    tree, initial:
        The region tree and initial field values (as for
        :class:`~repro.runtime.context.Runtime`).
    shards:
        Number of control-replicated shards (≥ 1).
    algorithm:
        Coherence algorithm each replica runs.
    sharding:
        Task → shard functor; defaults to the canonical
        ``point % shards``.
    replicate_analysis:
        When False, run the analysis on a single replica only (execution
        stays sharded, nothing is verified).  Use for communication
        measurements at scale, where N full analysis replicas would only
        burn time re-proving determinism.  Otherwise every stream is
        verified (DCR's determinism contract).
    backend:
        Analysis execution backend: ``"serial"`` (default), ``"thread"``,
        ``"process"``, or a prebuilt
        :class:`~repro.distributed.backends.AnalysisBackend`.
    max_workers:
        Concurrency cap for the thread/process backends (defaults to one
        worker per remote replica).
    profile:
        Optional shared :class:`PhaseProfile`; created when omitted.
        Records ``analyze`` (total), ``analyze.shard<i>`` (per shard),
        ``verify``, ``execute`` times and ``ship`` bytes.  Under
        :meth:`execute`, ``analyze`` contains the overlapped ``execute``.
    faults, recv_timeout, retry, checkpoint_interval, clock:
        Fault-tolerance knobs forwarded to the process backend (see
        :class:`~repro.distributed.backends.ProcessBackend`): a
        deterministic :class:`FaultPlan` for chaos testing, the bounded
        per-request receive timeout, the recovery :class:`RetryPolicy`,
        how many verified streams elapse between recovery checkpoints,
        and an injectable clock for sleep-free tests.
    """

    def __init__(self, tree: RegionTree,
                 initial: Mapping[str, np.ndarray],
                 shards: int,
                 algorithm: str = "raycast",
                 sharding: Optional[ShardingFunctor] = None,
                 replicate_analysis: bool = True,
                 backend: str | AnalysisBackend = "serial",
                 max_workers: Optional[int] = None,
                 profile: Optional[PhaseProfile] = None,
                 faults: Optional[FaultPlan] = None,
                 recv_timeout: Optional[float] = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_interval: int = 4,
                 clock=None) -> None:
        if shards < 1:
            raise MachineError("need at least one shard")
        self.tree = tree
        self.shards = shards
        self.sharding = sharding if sharding is not None \
            else dcr_sharding(shards)
        self.profile = profile if profile is not None else PhaseProfile()
        # Validate the initial values *before* building the backend: a
        # process backend spawns worker children as a side effect, and a
        # constructor that raises after spawning leaks orphans (there is
        # no runtime object for the caller to close).
        # shard-local memory: values[s] is shard s's copy of each field
        self._values = {name: np.tile(base, (shards, 1)) for name, base
                        in initial_fields(tree, initial).items()}
        # owner[k] = shard that last produced element k of the field
        self._owners = {name: np.zeros(tree.root.space.size, dtype=np.int64)
                        for name in self._values}
        replicas = shards if replicate_analysis else 1
        self._backend = make_backend(backend, tree, algorithm, replicas,
                                     max_workers=max_workers,
                                     faults=faults,
                                     recv_timeout=recv_timeout,
                                     retry=retry,
                                     checkpoint_interval=checkpoint_interval,
                                     clock=clock)
        self.log = MessageLog()
        self._executed = 0

    # ------------------------------------------------------------------
    @property
    def backend(self) -> AnalysisBackend:
        """The analysis execution backend."""
        return self._backend

    @property
    def graph(self):
        """The (replica-0) dependence graph."""
        return self._backend.reference.graph

    @property
    def recovery(self) -> Optional[RecoveryReport]:
        """Cumulative supervision counters (``None`` for in-process
        backends, which have no workers to supervise)."""
        return self._backend.recovery

    def close(self) -> None:
        """Release backend workers (no-op for in-process backends)."""
        self._backend.close()

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def analyze(self, stream: TaskStream) -> list[ShardReport]:
        """Run the replicated analysis of one stream (no execution).

        Analyzes the stream on every replica through the configured
        backend, then performs the deterministic-merge verification.
        Returns the per-shard reports (fingerprint, analysis seconds,
        shipped bytes); raises
        :class:`~repro.distributed.verify.DeterminismError` on
        divergence.  Bodies are not run during analysis — values are
        owned by the sharded execution.
        """
        return self._analyze(stream)

    def _analyze(self, stream, meanwhile=None) -> list[ShardReport]:
        for task in stream:  # a replica refusing part-way would diverge
            check_tree(task, self.tree)
        base = self._backend.tasks_analyzed
        shipped_before = self._backend.shipped_bytes
        with self.profile.phase("analyze"):
            reports = self._backend.analyze(stream, meanwhile)
        for report in reports:
            self.profile.add_time(f"analyze.shard{report.shard}",
                                  report.seconds)
        self.profile.add_bytes("ship",
                               self._backend.shipped_bytes - shipped_before)
        if len(reports) > 1:
            with self.profile.phase("verify"):
                check_reports(
                    reports,
                    lambda shard: self._backend.dump_dependences(
                        shard, base, len(stream)),
                    base)
        # the stream's analysis is fingerprint-verified: let supervised
        # backends checkpoint
        self._backend.after_verified()
        obs.counter("tasks_analyzed", self._backend.tasks_analyzed)
        obs.counter("shipped_bytes", self._backend.shipped_bytes)
        return reports

    def execute(self, stream: TaskStream) -> list[ShardReport]:
        """Analyze the stream on every replica, execute it sharded.

        The execution runs while the other replicas analyze.  Any failure
        — diverging replicas, a lost worker, a bad shard id, a raising
        body, a region of another tree (refused before any replica sees
        the window) — restores field values, owners and the message log
        to the window's start and re-raises, once every reply is read.
        Only an internal analysis error part-way leaves replicas diverged.
        """
        values = {name: v.copy() for name, v in self._values.items()}
        owners = {name: o.copy() for name, o in self._owners.items()}
        log = (self.log.messages, self.log.bytes, dict(self.log.by_pair))
        failed: list[Exception] = []

        def run() -> None:
            try:
                with self.profile.phase("execute"):
                    for task in stream:
                        self._execute_one(task, self.sharding(task))
            except Exception as exc:  # held until the replies are in
                failed.append(exc)

        try:
            reports = self._analyze(stream, run)
            if failed:
                raise failed[0]
        except BaseException:
            self._values, self._owners = values, owners
            self.log.messages, self.log.bytes, self.log.by_pair = log
            raise
        self._executed += len(stream)
        return reports

    # ------------------------------------------------------------------
    def _pull(self, field_name: str, positions: np.ndarray,
              shard: int) -> None:
        """Move every stale input element to ``shard``, one message per
        producing shard, in shard order; nothing to sort when none is
        stale or one shard produced them all."""
        owners = self._owners[field_name][positions]
        stale = owners != shard
        if not stale.any():
            return
        positions, owners = positions[stale], owners[stale]
        values = self._values[field_name]
        single = (owners == owners[0]).all()
        for src in owners[:1] if single else np.unique(owners):
            pulled = positions if single else positions[owners == src]
            values[shard, pulled] = values[src, pulled]
            self.log.record(int(src), shard, pulled.size, values.itemsize)

    def _execute_one(self, task: Task, shard: int) -> None:
        if not (isinstance(shard, (int, np.integer))
                and not isinstance(shard, bool) and 0 <= shard < self.shards):
            raise MachineError(f"sharding functor returned {shard} "
                               f"for {self.shards} shards")
        root_space = self.tree.root.space
        rows = {name: values[shard] for name, values in self._values.items()}
        positions, buffers = [], []
        for req in task.requirements:
            pos = root_space.positions_of(req.region.space)
            positions.append(pos)
            if not req.privilege.is_reduce:
                self._pull(req.field, pos, shard)
            buffers.append(gather(rows, req, pos))

        if task.body is not None:
            task.body(*buffers)

        for req, pos, buf in zip(task.requirements, positions, buffers):
            if req.privilege.is_read:
                continue
            if req.privilege.is_reduce:
                # fold onto the current values: pull them first so the
                # contribution lands on the latest state
                self._pull(req.field, pos, shard)
            scatter(rows, req, pos, buf)
            self._owners[req.field][pos] = shard

    # ------------------------------------------------------------------
    def gather_field(self, name: str) -> np.ndarray:
        """The globally coherent values: each element from its owner."""
        owners = self._owners[name]
        values = self._values[name]
        return values[owners, np.arange(owners.size)].copy()

    def gather_fields(self) -> dict[str, np.ndarray]:
        """Snapshot of every field, gathered by owner."""
        return {name: self.gather_field(name)
                for name in self.tree.field_space.names}

    def state_fingerprint(self) -> str:
        """Digest of the gathered (globally coherent) field values —
        comparable against :meth:`SequentialExecutor.fingerprint`."""
        from repro.distributed.verify import fields_fingerprint

        return fields_fingerprint(self.gather_fields())

    def __repr__(self) -> str:
        return (f"ShardedRuntime(shards={self.shards}, "
                f"backend={type(self._backend).name!r}, "
                f"executed={self._executed}, messages={self.log.messages})")
