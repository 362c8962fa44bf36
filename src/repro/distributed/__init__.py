"""An executable model of dynamic control replication (DCR).

The machine simulator (:mod:`repro.machine`) prices DCR's effect on
analysis *cost*; this package models its *mechanism* [Bauer et al.,
PPoPP 2021], executably:

* every shard runs a full replica of the dependence/coherence analysis
  over the whole task stream — DCR's correctness rests on those replicas
  reaching **bit-identical** conclusions, which
  :class:`~repro.distributed.sharded.ShardedRuntime` verifies rather than
  assumes;
* each task *executes* only on its shard, against shard-local memory;
* when a task depends on data last produced on another shard, the values
  move in an explicit point-to-point message — the "implicit
  communication" of the paper's section 2, surfaced and counted.

The message log makes communication volume a measurable quantity
(`benchmarks/test_ablation_comm.py` reports bytes per iteration for the
three benchmark applications).

The replicated analyses themselves run on a pluggable executor
(:mod:`repro.distributed.backends`: serial / thread pool / process pool
with pickled task-stream shipping) followed by a deterministic-merge
verification step (:mod:`repro.distributed.verify`) that hashes each
shard's dependence graph and equivalence-set refinement trace and fails
fast with a structured diff on divergence.

The process backend is *supervised* (:mod:`repro.distributed.faults`):
worker crashes, hangs and corrupt replies are detected within a bounded
receive timeout and recovered by respawn + checkpoint restore +
deterministic replay of the journaled task stream — determinism is what
makes recovery a digest-checked re-execution rather than a guess.  A
seeded :class:`~repro.distributed.faults.FaultPlan` injects faults for
chaos testing; a :class:`~repro.distributed.faults.RecoveryReport`
counts everything the supervisor saw and did.
"""

from repro.distributed.backends import (BACKENDS, AnalysisBackend,
                                        ProcessBackend, SerialBackend,
                                        ThreadBackend, make_backend)
from repro.distributed.faults import (FAULT_KINDS, NO_FAULTS, CorruptReply,
                                      FaultEvent, FaultPlan, RecoveryReport,
                                      RetryPolicy, WorkerCrashed, WorkerFault,
                                      WorkerHung, WorkerLost)
from repro.distributed.sharded import MessageLog, ShardedRuntime
from repro.distributed.verify import (DeterminismError, ShardReport,
                                      analysis_fingerprint,
                                      graph_fingerprint,
                                      structure_fingerprint)

__all__ = ["MessageLog", "ShardedRuntime", "AnalysisBackend", "BACKENDS",
           "SerialBackend", "ThreadBackend", "ProcessBackend",
           "make_backend", "DeterminismError", "ShardReport",
           "analysis_fingerprint", "graph_fingerprint",
           "structure_fingerprint",
           "FAULT_KINDS", "NO_FAULTS", "FaultEvent", "FaultPlan",
           "RecoveryReport", "RetryPolicy",
           "WorkerFault", "WorkerCrashed", "WorkerHung", "CorruptReply",
           "WorkerLost"]
