"""Pluggable execution backends for replicated shard analysis.

:class:`~repro.distributed.sharded.ShardedRuntime` must run the same
dependence analysis once per control-replicated shard (the DCR contract).
The analyses are completely independent — they share no mutable state and
must reach bit-identical conclusions — so they are embarrassingly
parallel.  Every replica is a :class:`_Hosting` behind a handle, analyzed
by :meth:`_Hosting.run`; three backends place and ask the hostings:

* :class:`SerialBackend` — all in-process, one after another (the
  reference semantics, and the fastest option for tiny streams);
* :class:`ThreadBackend` — all in-process, on a thread pool (cheap to set
  up; NumPy kernels release the GIL, pure-Python scan code does not);
* :class:`ProcessBackend` — shard 0 in-process, the others in persistent
  worker processes fed by *pickled task-stream shipping*: region trees
  and task streams are encoded into a compact picklable form (task bodies
  are never shipped), structural deltas (partitions created since the
  last ship) ride along, and each worker returns only its analysis
  fingerprint and timing.  Dependence dumps for divergence diffs are
  fetched lazily, on mismatch.

A hosting on the driver's tree runs the stream's own launches; a worker's,
or a lost worker's in-process fallback, decodes the shipped message.
Every replica is an analysis-only :class:`~repro.runtime.context.Runtime`:
DCR replicates the analysis, not the values, which live only in
:class:`~repro.distributed.sharded.ShardedRuntime`.  The deterministic-merge
verification of the per-shard reports lives in :mod:`repro.distributed.verify`.
"""

from __future__ import annotations

import os
import pickle
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional, Sequence

from repro.errors import MachineError
from repro.geometry.fastpath import reset_geometry_cache
from repro.geometry.index_space import IndexSpace
from repro.obs import tracer as obs
from repro.regions.partition import check_partition
from repro.regions.tree import RegionTree
from repro.runtime.context import Runtime
from repro.runtime.task import (RegionRequirement, TaskStream,
                                decode_privilege, encode_privilege,
                                encode_tasks)
from repro.clock import SystemClock
from repro.distributed.faults import (HANG_SECONDS, NO_FAULTS, CorruptReply,
                                      FaultPlan, RecoveryReport, RetryPolicy,
                                      WorkerCrashed, WorkerFault, WorkerHung,
                                      WorkerLost)
from repro.distributed.verify import (ShardReport, analysis_fingerprint,
                                      structure_fingerprint)

#: Registry names accepted by :func:`make_backend`.
BACKENDS = ("serial", "thread", "process")

#: Seconds between a process backend's liveness probes of a worker it is
#: waiting on.
HEARTBEAT = 0.05


# ----------------------------------------------------------------------
# picklable region-tree encoding (tasks: :func:`encode_tasks`)
# ----------------------------------------------------------------------
def encode_structure(tree: RegionTree, known_regions: int) -> list[tuple]:
    """Structural delta: every partition whose subregions were created at
    or after region index ``known_regions``, in creation order.

    Replaying these records on a replica of the tree reproduces the same
    regions with the same uids (uids are assigned densely in creation
    order), so shipped task encodings resolve on the worker side.
    """
    records: list[tuple] = []
    seen: set[int] = set()
    for region in tree.regions[known_regions:]:
        part = region.parent_partition
        assert part is not None  # only the root has no parent partition
        key = id(part)
        if key in seen:
            continue
        seen.add(key)
        records.append((part.parent.uid, part.name,
                        [sub.space.indices for sub in part.subregions],
                        part.disjoint, part.complete))
    return records


def apply_structure(regions_by_uid: dict, records: Sequence[tuple]) -> None:
    """Replay partition-creation records onto a tree replica, as
    :meth:`_Hosting.check` returns them: already checked, not again."""
    for parent_uid, name, subspaces, disjoint, complete in records:
        part = regions_by_uid[parent_uid]._add_partition(
            name, subspaces, disjoint, complete)
        for sub in part.subregions:
            regions_by_uid[sub.uid] = sub


# ----------------------------------------------------------------------
# backend protocol
# ----------------------------------------------------------------------
def _analyze_replica(shard: int, runtime: Runtime, launches, base: int,
                     count: int) -> tuple:
    """One replica's analysis of ``(name, requirements, point)`` launches;
    returns the ``(shard, fingerprint, seconds)`` row and the structure
    digest that fingerprint covers (computed once).

    Everything it records is attributed to the shard — tid ``shard``
    always, pid ``shard + 1`` for hosted replicas; the reference (shard
    0) stays on the driver's pid — wherever the replica lives: driver,
    pool thread, worker process or the parent-side fallback.
    """
    start = time.perf_counter()
    with obs.active_tracer().scope(pid=shard + 1 if shard else None,
                                   tid=shard), \
            obs.span(f"analyze.shard{shard}", "distributed.replica",
                     shard=shard, tasks=count):
        for name, requirements, point in launches:
            runtime.launch(name, requirements, None, point)
    seconds = time.perf_counter() - start
    digest = structure_fingerprint(runtime)
    return (shard, analysis_fingerprint(runtime, base, count, digest),
            seconds), digest


def dependence_rows(graph, base: int, count: int) -> list[tuple[int, ...]]:
    """Sorted dependence lists of tasks ``base .. base + count - 1``: the
    rows a divergence diff compares across shards."""
    return [tuple(sorted(graph.dependences_of(t)))
            for t in range(base, base + count)]


class AnalysisBackend(ABC):
    """Runs the N replicated analyses of each executed stream.

    Every replica is a :class:`_Hosting` behind a handle, analysis-only
    and started from ``(tree, algorithm)``.  Shard 0's hosting shares the
    calling process and tree on every backend and is never checkpointed
    or trimmed, so :attr:`reference` holds the whole verified graph;
    backends differ in where replicas 1..N-1 are hosted.
    """

    #: Registry name, overridden by each concrete backend.
    name = "abstract"
    #: Whether every replica is hosted on the driver's tree (else only
    #: shard 0 is).
    _all_local = True

    def __init__(self, tree: RegionTree, algorithm: str,
                 replicas: int) -> None:
        if replicas < 1:
            raise MachineError("need at least one analysis replica")
        self.tree = tree
        self.algorithm = algorithm
        self.replicas = replicas
        #: Handles on the hostings that share the driver's tree, by shard.
        self._local = [
            _LocalHandle(_Hosting(tree, {shard: Runtime(
                tree, None, algorithm=algorithm)}, 0))
            for shard in range(replicas if self._all_local else 1)]
        #: Handles on the hostings elsewhere (the process backend's).
        self._handles: list = []

    # ------------------------------------------------------------------
    @property
    def reference(self) -> Runtime:
        """Shard 0's runtime, for reading: :attr:`ShardedRuntime.graph`
        and the analysis meter."""
        return self._local[0].hosting.runtimes[0]

    @property
    def tasks_analyzed(self) -> int:
        """Tasks analyzed so far (the base id of the next stream)."""
        return self._local[0].hosting.base

    def analyze(self, stream: TaskStream,
                meanwhile: Optional[Callable[[], None]] = None
                ) -> list[ShardReport]:
        """Run the stream's analysis on every replica; returns one report
        per replica, ordered by shard id (shard 0 first).  ``meanwhile``
        runs here while the other replicas analyze; it must not raise."""
        return self._analyze_replicas(stream, meanwhile or (lambda: None))

    def _run_local(self, stream: TaskStream) -> list[tuple]:
        """Run the hostings on the driver's tree, in shard order, over the
        stream's own launches; returns their rows."""
        launches = [(task.name, task.requirements, task.point)
                    for task in stream]
        return [row for handle in self._local
                for row in handle.hosting.run(launches, len(stream))]

    @abstractmethod
    def _analyze_replicas(self, stream: TaskStream,
                          meanwhile: Callable[[], None]
                          ) -> list[ShardReport]:
        """Run the analysis everywhere, calling ``meanwhile`` once on the
        way, and report per-shard results."""

    def _request(self, handle, message: tuple):
        """Ask one handle's hosting (the process backend supervises it)."""
        status, result = _dispatch(message, handle.hosting)
        if status != "ok":
            raise MachineError(f"analysis replica failed: {result}")
        return result

    def dump_dependences(self, shard: int, base: int,
                         count: int) -> list[tuple[int, ...]]:
        """One shard's sorted dependence lists for a task-id window, asked
        of whichever handle hosts the shard (divergence diagnostics; the
        happy path never calls this)."""
        for handle in self._local + self._handles:
            if shard in handle.shards:
                return self._request(handle, ("dump", shard, base, count))
        raise MachineError(f"no replica hosts shard {shard}")

    def close(self) -> None:
        """Release any workers; idempotent."""

    def after_verified(self) -> None:
        """Hook: the caller finished the deterministic-merge verification
        of the last analyzed stream.  The process backend uses this to
        take fingerprint-verified recovery checkpoints; in-process
        backends need nothing."""

    #: Supervision counters (:class:`RecoveryReport`); ``None`` for
    #: backends that have no workers to supervise.
    recovery: Optional[RecoveryReport] = None

    @property
    def shipped_bytes(self) -> int:
        """Total pickled payload shipped to remote replicas so far."""
        return 0

    def __enter__(self) -> "AnalysisBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(AnalysisBackend):
    """The reference backend: replicas analyzed one after another."""

    name = "serial"

    def _analyze_replicas(self, stream, meanwhile):
        rows = self._run_local(stream)
        meanwhile()
        return [ShardReport(*row) for row in rows]


class ThreadBackend(AnalysisBackend):
    """Replica analyses on a thread pool.

    Replicas share no mutable state (each owns its coherence-algorithm
    instances, meter and graph; the region tree is only read during
    analysis), so the analyses are safe to interleave.
    """

    name = "thread"

    def __init__(self, tree, algorithm, replicas,
                 max_workers: Optional[int] = None) -> None:
        super().__init__(tree, algorithm, replicas)
        workers = max(1, min(replicas, max_workers or replicas))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-analysis")

    def _analyze_replicas(self, stream, meanwhile):
        launches = [(task.name, task.requirements, task.point)
                    for task in stream]
        futures = [self._pool.submit(handle.hosting.run, launches,
                                     len(stream))
                   for handle in self._local]
        meanwhile()
        return [ShardReport(*row) for future in futures
                for row in future.result()]

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# process backend: persistent workers + pickled task-stream shipping,
# supervised for fault tolerance
# ----------------------------------------------------------------------
class _Hosting:
    """One group of replica runtimes: a region tree (the driver's, or a
    private replica in a worker or a lost worker's fallback), one
    :class:`Runtime` per hosted shard, and the stream base.  Every replica
    analyzes through :meth:`run`.  A :meth:`checkpoint` trims the
    runtimes' verified history and pickles the live state that is left
    (picklable because reduction operators pickle by registry name).
    Nothing reads a trimmed task or row: hosted replicas only ``launch``
    (never ``execute_trace``, whose recorder reads the graph), and
    ``dump`` is only asked for the window being verified, at or past the
    last checkpoint.  A checkpoint reuses the last run's digests; a
    ``digest`` request (the restore check) hashes afresh."""

    def __init__(self, tree, runtimes: dict, base: int) -> None:
        self.tree = tree
        self.runtimes = runtimes
        self.base = base
        self.regions = {region.uid: region for region in tree.regions}
        #: ``{shard: structure digest}`` of the last run, if complete.
        self.kept: Optional[dict] = None

    def check(self, structure, tasks) -> list[tuple]:
        """Raise, naming it, on the first part of an analyze message this
        hosting could not apply: a structure record ``create_partition``
        would refuse, or a region uid, field or privilege it cannot
        resolve.  A record may name a region an earlier record creates
        (uids are dense).  Mutates nothing; returns the structure checked."""
        seen: dict[int, tuple] = {}  # uid -> (space, name, partition names)
        checked = []
        next_uid = len(self.regions)

        def resolve(uid) -> tuple:
            if type(uid) is not int or (uid not in seen
                                        and uid not in self.regions):
                raise KeyError(f"unknown region uid {uid!r}")
            if uid not in seen:
                region = self.regions[uid]
                seen[uid] = (region.space, region.name,
                             set(region.partitions))
            return seen[uid]

        for parent_uid, name, index_arrays, disjoint, complete in structure:
            space, parent_name, taken = resolve(parent_uid)
            subspaces = [IndexSpace(arr, trusted=True) for arr in index_arrays]
            checked.append((parent_uid, name, subspaces, *check_partition(
                space, parent_name, taken, name, subspaces,
                disjoint=disjoint, complete=complete)))
            taken.add(name)
            for i, sub in enumerate(subspaces):
                seen[next_uid] = (sub, f"{parent_name}.{name}[{i}]", set())
                next_uid += 1
        for _, reqs, _ in tasks:
            for uid, field, privilege in reqs:
                if uid not in seen:
                    resolve(uid)
                decode_privilege(privilege)
                if field not in self.tree.field_space:
                    raise KeyError(f"unknown field {field!r}")
        return checked

    def analyze(self, structure, tasks) -> list[tuple]:
        """:meth:`check` the message, apply its structure, then :meth:`run`
        the decoded tasks, so a message that cannot resolve changes
        nothing."""
        apply_structure(self.regions, self.check(structure, tasks))
        return self.run([(name, [RegionRequirement(self.regions[uid], field,
                                                   decode_privilege(priv))
                                 for uid, field, priv in reqs], point)
                         for name, reqs, point in tasks], len(tasks))

    def run(self, launches: list, count: int) -> list[tuple]:
        """Every hosted replica's analysis of ``count`` ``(name,
        requirements, point)`` launches on this hosting's tree: one
        ``(shard, fingerprint, seconds)`` row each; the structure digests
        are kept for the checkpoint that may follow."""
        self.kept = None
        results = [_analyze_replica(shard, runtime, launches, self.base,
                                    count)
                   for shard, runtime in self.runtimes.items()]
        self.base += count
        self.kept = {row[0]: digest for row, digest in results}
        return [row for row, _ in results]

    def digests(self) -> list[tuple]:
        """Per-shard structure fingerprints, hashed afresh: all of a
        replica's state that a checkpoint keeps and a restore could get
        wrong."""
        return [(shard, structure_fingerprint(runtime))
                for shard, runtime in self.runtimes.items()]

    def checkpoint(self) -> tuple:
        """``(base, per-shard structure digests, live blob)``: the last
        run's digests (hashed afresh if none); then the runtimes are
        trimmed behind the base (no structure token or meter count moves)
        and the live state ``(tree, runtimes, base)`` pickled."""
        digests = list(self.kept.items()) if self.kept else self.digests()
        for runtime in self.runtimes.values():
            runtime.trim(self.base)
        return (self.base, digests,
                pickle.dumps((self.tree, self.runtimes, self.base)))


def _open_hosting(spec: dict) -> _Hosting:
    """The hosting a host starts from: a checkpoint's live state
    (``mode="restore"``), or the genesis snapshot."""
    if spec["mode"] == "restore":
        return _Hosting(*pickle.loads(spec["live"]))
    tree, algorithm = pickle.loads(spec["genesis"])
    return _Hosting(tree, {shard: Runtime(tree, None, algorithm=algorithm)
                           for shard in spec["shards"]}, 0)


def _dispatch(msg: tuple, hosting: _Hosting) -> tuple:
    """Handle one protocol message against a hosting; returns
    ``(status, result)``.  Worker processes and in-process hosts both
    answer through it, so every host speaks the exact same protocol."""
    try:
        if msg[0] == "analyze":
            # msg[3] is the record level — consumed by the worker loop;
            # in-process hosts record straight into the active tracer.
            return ("ok", hosting.analyze(msg[1], msg[2]))
        if msg[0] == "dump":
            _, shard, lo, n = msg
            if shard not in hosting.runtimes:
                return ("error", f"shard {shard} not hosted here")
            return ("ok", dependence_rows(hosting.runtimes[shard].graph,
                                          lo, n))
        if msg[0] == "digest":
            return ("ok", hosting.digests())
        if msg[0] == "checkpoint":
            return ("ok", hosting.checkpoint())
        return ("error", f"unknown command {msg[0]!r}")
    except Exception as exc:
        return ("error", repr(exc))


def _worker_main(conn, payload: bytes) -> None:  # pragma: no cover - subprocess
    """Worker loop: host replica runtimes, analyze shipped streams, reply
    with fingerprints; consult the shipped :class:`FaultPlan` before each
    request (the no-op default never fires)."""
    spec = pickle.loads(payload)
    faults: FaultPlan = spec["faults"]
    worker, incarnation = spec["worker"], spec["incarnation"]
    # A fresh, disabled tracer: under the fork start method the child
    # would otherwise inherit the parent's enabled tracer *and* its
    # buffered events.  Each analyze message sets its record level.
    worker_tracer = obs.Tracer(enabled=False)
    obs.set_tracer(worker_tracer)
    # Same hygiene for the geometry fast path: the fork start method
    # copies the driver's cache into the child; per-process cache state
    # is rebuilt from scratch on every (re)spawn instead of leaking
    # across workers.
    reset_geometry_cache()
    hosting = _open_hosting(spec)
    op = 0
    try:
        while True:
            msg = pickle.loads(conn.recv_bytes())
            if msg[0] == "stop":
                return
            event = faults.draw(worker, incarnation, op)
            op += 1
            if event is not None:
                if event.kind == "crash":
                    os._exit(23)
                if event.kind == "hang":
                    time.sleep(HANG_SECONDS)
                    os._exit(24)
                if event.kind in ("delay", "slow"):
                    time.sleep(event.seconds or 0.01)
            level = msg[3] if msg[0] == "analyze" else 0
            worker_tracer.enabled = level > 0
            worker_tracer.witnesses = level > 1
            # Every reply is (status, result, fragment): what this
            # request recorded (None when nothing was asked for), drained
            # and stamped with this worker's clock for the driver's
            # Tracer.absorb.  Spans are plain dataclasses of primitives —
            # pickle-safe and stable across processes (no uids).
            reply = _dispatch(msg, hosting) \
                + (worker_tracer.drain() if level else None,)
            if event is not None and event.kind == "drop":
                continue
            if event is not None and event.kind == "corrupt":
                conn.send_bytes(b"\xde\xad\xbe\xef garbled frame")
                continue
            conn.send_bytes(pickle.dumps(reply))
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _Checkpoint(NamedTuple):
    """A verified checkpoint as the parent keeps it: the journal index and
    task base it covers, the reference replica's structure digest at that
    base, and the live-state blob (None before the first checkpoint)."""

    index: int = 0
    base: int = 0
    digest: str = ""
    live: Optional[bytes] = None


class _WorkerHandle:
    """Parent-side bookkeeping for one supervised worker process, and
    the wire it is reached over: :meth:`send` ships a request,
    :meth:`recv` waits for the reply bytes, :meth:`load` unpickles them
    (the trust boundary: a frame is shape-checked by
    :meth:`ProcessBackend._parse` before anything in it is used)."""

    remote = True

    def __init__(self, worker_id: int, shards) -> None:
        self.worker_id = worker_id
        self.shards = list(shards)
        self.proc = None
        self.conn = None
        self.incarnation = -1  # first spawn brings it to 0
        #: Last verified checkpoint (empty before the first).
        self.checkpoint = _Checkpoint()

    def send(self, message: tuple) -> int:
        """Ship one request; returns the bytes shipped."""
        blob = pickle.dumps(message)
        try:
            self.conn.send_bytes(blob)
        except (OSError, AttributeError) as exc:
            raise WorkerCrashed(
                f"worker {self.worker_id} unreachable: {exc!r}") from exc
        return len(blob)

    def recv(self, heartbeat: float, clock, timeout: Optional[float]):
        """Bounded receive: poll with ``heartbeat`` granularity, probing
        liveness between polls; raises :class:`WorkerCrashed` on death,
        :class:`WorkerHung` when ``timeout`` passes."""
        deadline = None if timeout is None else clock.monotonic() + timeout
        while True:
            try:
                if self.conn.poll(heartbeat):
                    return self.conn.recv_bytes()
            except (EOFError, OSError) as exc:
                raise WorkerCrashed(
                    f"worker {self.worker_id} died mid-request: "
                    f"{exc!r}") from exc
            if self.proc is not None and not self.proc.is_alive():
                try:  # drain a reply that raced the exit
                    if self.conn.poll(0):
                        return self.conn.recv_bytes()
                except (EOFError, OSError):
                    pass
                raise WorkerCrashed(
                    f"worker {self.worker_id} died (exitcode "
                    f"{self.proc.exitcode})")
            if deadline is not None and clock.monotonic() >= deadline:
                raise WorkerHung(
                    f"worker {self.worker_id} sent no reply within "
                    f"{timeout}s")

    def load(self, blob: bytes):
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise CorruptReply(
                f"worker {self.worker_id} reply failed to decode: "
                f"{exc!r}") from exc


class _LocalHandle(_WorkerHandle):
    """A hosting in this process — shard 0's, a serial or thread
    replica's, or a lost worker's — asked through the same send/recv/load
    calls, answered synchronously by :func:`_dispatch` with nothing
    pickled.  It cannot fault."""

    remote = False

    def __init__(self, hosting: _Hosting, worker_id: int = -1,
                 checkpoint: _Checkpoint = _Checkpoint()):
        super().__init__(worker_id, hosting.runtimes)
        self.checkpoint = checkpoint
        self.hosting = hosting
        self._reply: Optional[tuple] = None

    def send(self, message: tuple) -> int:
        self._reply = _dispatch(message, self.hosting) + (None,)
        return 0

    def recv(self, *_) -> Optional[tuple]:
        return self._reply

    def load(self, frame: tuple) -> tuple:
        return frame


#: The types of one analyze row: ``(shard, fingerprint, seconds)``.
_ROW_TYPES = (int, str, float)


def _rows_fit(rows, shards, types: tuple = _ROW_TYPES) -> bool:
    """Whether ``rows`` is one row of ``types`` per hosted shard, and
    names no other shard."""
    return (type(rows) is list
            and all(type(row) is tuple and tuple(map(type, row)) == types
                    for row in rows)
            and sorted(row[0] for row in rows) == sorted(shards))


class ProcessBackend(AnalysisBackend):
    """Shard 0 hosted in-process, replicas 1..N-1 in persistent,
    *supervised* worker processes.

    Workers receive a pickled genesis snapshot (region tree and
    algorithm) at spawn and per-``execute`` payloads containing the
    structural delta plus the encoded task stream; they return
    fingerprints and per-shard analysis seconds.  ``max_workers`` caps
    the process count — with fewer workers than remote replicas, workers
    host several replicas each and analyze them sequentially.  Workers
    are forked where the platform allows it, else spawned.

    Fault tolerance: every receive is bounded by ``recv_timeout`` with
    liveness probes every :data:`HEARTBEAT` seconds; a crash (EOF / dead
    process), hang (timeout) or corrupt reply triggers recovery — kill,
    exponential-backoff respawn (``retry``), restore from the last
    verified checkpoint (digest-checked), and deterministic replay of
    the journaled task stream since that checkpoint.  Checkpoints are
    taken every ``checkpoint_interval`` verified streams (see
    :meth:`after_verified`), and the journal is trimmed behind them.  A
    checkpoint is a worker's live state alone: its runtimes drop the
    verified tasks and dependence rows first, and its structure digests
    must equal shard 0's.  A checkpoint reuses the verified window's
    digests, on both sides; a restore hashes fresh.
    When a worker exhausts its retries it is declared lost and its
    replicas move in-process (graceful degradation to serial-backend
    semantics): rebuilt from the same checkpoint and journal a respawn
    would use, and asked through the same request path.  All activity
    is counted in :attr:`recovery` (:class:`RecoveryReport`).

    ``faults`` injects deterministic failures for chaos testing
    (:class:`FaultPlan`; the default never fires); ``clock`` makes the
    backoff sleeps testable without real waiting.
    """

    name = "process"
    _all_local = False

    def __init__(self, tree, algorithm, replicas,
                 max_workers: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 recv_timeout: Optional[float] = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_interval: int = 4,
                 clock=None) -> None:
        self._closed = False
        super().__init__(tree, algorithm, replicas)
        import multiprocessing as mp

        self._faults = faults if faults is not None else NO_FAULTS
        self._recv_timeout = recv_timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._checkpoint_interval = max(1, checkpoint_interval)
        self._clock = clock if clock is not None else SystemClock()
        self.recovery = RecoveryReport()
        self._shipped = 0
        self._known_regions = len(tree.regions)
        #: Journal of shipped analyze entries: (message, task count).
        #: ``_journal_base`` is the absolute index of ``_journal[0]``
        #: (entries behind every worker's checkpoint are trimmed).
        self._journal: list[tuple] = []
        self._journal_base = 0
        self._streams_since_checkpoint = 0
        remote = list(range(1, replicas))
        if not remote:
            return
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        workers = max(1, min(len(remote), max_workers or len(remote)))
        #: Spawn-time snapshot; respawns-from-scratch and in-process
        #: fallbacks reuse these exact bytes so every incarnation
        #: observes the identical starting state.
        self._genesis = pickle.dumps((tree, algorithm))
        groups = [remote[k::workers] for k in range(workers)]
        for worker_id, shards in enumerate(groups):
            handle = _WorkerHandle(worker_id, shards)
            self._spawn(handle)
            self._handles.append(handle)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    @property
    def handles(self) -> tuple:
        """The live worker/local handles (tests and introspection)."""
        return tuple(self._handles)

    @property
    def remote_handles(self) -> list:
        return [h for h in self._handles if h.remote]

    @property
    def degraded(self) -> bool:
        """Whether any replicas fell back to in-process hosting."""
        return any(not h.remote for h in self._handles)

    def _host_spec(self, handle: _WorkerHandle) -> dict:
        """What a new host of ``handle``'s replicas starts from (see
        :func:`_open_hosting`)."""
        if handle.checkpoint.live is not None:
            return {"mode": "restore", "live": handle.checkpoint.live}
        return {"mode": "fresh", "genesis": self._genesis,
                "shards": handle.shards}

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.incarnation += 1
        parent_conn, child_conn = self._ctx.Pipe()
        payload = pickle.dumps({"faults": self._faults,
                                "worker": handle.worker_id,
                                "incarnation": handle.incarnation,
                                **self._host_spec(handle)})
        self._shipped += len(payload)
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, payload), daemon=True)
        proc.start()
        child_conn.close()
        handle.proc, handle.conn = proc, parent_conn
        if handle.incarnation > 0:
            self.recovery.respawns += 1
            obs.instant("respawn", "recovery", worker=handle.worker_id,
                        incarnation=handle.incarnation)
        self._check_restore(handle)

    def _check_restore(self, handle: _WorkerHandle) -> None:
        """Verify a host restored from a checkpoint against shard 0's
        structure digest at the checkpoint before trusting it
        with replay; a mismatch is a :class:`CorruptReply`, which a
        respawn's retry loop catches."""
        if handle.checkpoint.live is None:
            return
        digests = self._roundtrip(handle, ("digest",))
        if any(digest != handle.checkpoint.digest for _, digest in digests):
            raise CorruptReply(
                f"worker {handle.worker_id} restored state digest "
                f"mismatch at base {handle.checkpoint.base}")
        self.recovery.restores += 1

    def _kill(self, handle: _WorkerHandle) -> None:
        proc, conn = handle.proc, handle.conn
        handle.proc = handle.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if proc is not None:
            try:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5)
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    # supervised messaging: one request path for every host
    # ------------------------------------------------------------------
    @property
    def shipped_bytes(self) -> int:
        return self._shipped

    def _reply(self, handle: _WorkerHandle, message: tuple):
        """Wait for, and parse, the reply to ``message``."""
        return self._parse(handle, handle.recv(
            HEARTBEAT, self._clock, self._recv_timeout), message[0],
            message[3] if message[0] == "dump" else None)

    def _parse(self, handle: _WorkerHandle, blob, command: str,
               count: Optional[int] = None):
        """Decode one reply ``(status, result, fragment)``, rejecting it
        by shape before trusting its content: anything but a 3-tuple with
        status ``"ok"``/``"error"`` and a ``None`` or
        :meth:`~repro.obs.tracer.TraceBuffer.absorbable` fragment — or a
        result :meth:`_result_fits` refuses — is a :class:`CorruptReply`.
        The fragment (what the worker's tracer recorded) is absorbed into
        the active tracer, the result returned."""
        frame = handle.load(blob)
        if not (type(frame) is tuple and len(frame) == 3
                and isinstance(frame[0], str) and frame[0] in ("ok", "error")
                and (frame[2] is None
                     or type(frame[2]) is obs.TraceBuffer
                     and frame[2].absorbable())):
            raise CorruptReply(
                f"worker {handle.worker_id} sent a malformed reply frame")
        status, result, fragment = frame
        if status != "ok":
            raise MachineError(f"analysis worker failed: {result}")
        if not self._result_fits(handle, command, result, count):
            raise CorruptReply(
                f"worker {handle.worker_id} sent a {command} result that "
                f"does not match its shards {handle.shards}")
        if fragment is not None:
            obs.active_tracer().absorb(fragment)
        return result

    def _result_fits(self, handle: _WorkerHandle, command: str, result,
                     count: Optional[int]) -> bool:
        """Analyze: a row per hosted shard.  Digest: a digest per shard.
        Dump: ``count`` tuples of ints (any number if ``count`` is None).
        Checkpoint: ``(base, digests, live blob)`` at the parent's base,
        every digest the one shard 0 kept from its last run."""
        if command == "analyze":
            return _rows_fit(result, handle.shards)
        if command == "digest":
            return _rows_fit(result, handle.shards, (int, str))
        if command == "dump":
            return (type(result) is list and count in (None, len(result))
                    and all(type(row) is tuple
                            and all(type(t) is int for t in row)
                            for row in result))
        return command != "checkpoint" or (
            type(result) is tuple and len(result) == 3
            and type(result[0]) is int and result[0] == self.tasks_analyzed
            and _rows_fit(result[1], handle.shards, (int, str))
            and all(digest == self._local[0].hosting.kept[0]
                    for _, digest in result[1])
            and type(result[2]) is bytes)

    def _roundtrip(self, handle: _WorkerHandle, message: tuple):
        self._shipped += handle.send(message)
        return self._reply(handle, message)

    def _fault(self, handle: _WorkerHandle, exc: WorkerFault) -> None:
        self.recovery.record_fault(exc.kind)
        obs.instant(f"fault.{exc.kind}", "recovery", worker=handle.worker_id)

    def _request(self, handle: _WorkerHandle, message: tuple):
        """One supervised request: a fault triggers the recovery path
        with the request re-issued afterwards."""
        try:
            return self._roundtrip(handle, message)
        except WorkerFault as exc:
            self._fault(handle, exc)
            _, result = self._recover(handle, followup=message)
            return result

    # ------------------------------------------------------------------
    # recovery: respawn + checkpoint restore + deterministic replay
    # ------------------------------------------------------------------
    def _replay(self, handle: _WorkerHandle):
        """Replay every journaled stream since the handle's checkpoint;
        returns the last entry's analyze results (None if nothing to
        replay)."""
        entries = self._journal[handle.checkpoint.index - self._journal_base:]
        if entries:
            obs.instant("replay", "recovery", worker=handle.worker_id,
                        streams=len(entries))
        last = None
        for entry, count in entries:
            last = self._roundtrip(handle, entry)
            self.recovery.replayed_streams += 1
            self.recovery.replayed_tasks += count * len(handle.shards)
        return last

    def _recover(self, handle: _WorkerHandle,
                 followup: Optional[tuple] = None) -> tuple:
        """Recover one faulted worker.  Returns ``(last_analyze_results,
        followup_result)``; the first covers the newest journal entry
        (the in-flight stream during analyze-path recovery), the second
        answers ``followup`` when given.

        Bounded retries with backoff; on exhaustion the worker is
        declared lost and its replicas move in-process.
        """
        start = time.perf_counter()
        self.recovery.recoveries += 1
        try:
            for attempt in range(self._retry.max_retries + 1):
                self.recovery.retries += 1
                self._kill(handle)
                delay = self._retry.delay(attempt, salt=handle.worker_id)
                if delay > 0:
                    self._clock.sleep(delay)
                try:
                    self._spawn(handle)
                    return self._catch_up(handle, followup)
                except WorkerFault as exc:
                    self.recovery.record_fault(exc.kind)
            self.recovery.workers_lost += 1
            self._kill(handle)
            self._handles.remove(handle)
            self.recovery.local_fallbacks += 1
            obs.instant("local_fallback", "recovery",
                        worker=handle.worker_id, shards=list(handle.shards))
            try:
                local = _LocalHandle(_open_hosting(self._host_spec(handle)),
                                     handle.worker_id, handle.checkpoint)
                self._check_restore(local)
            except Exception as exc:
                raise WorkerLost(
                    f"worker {handle.worker_id} lost and its checkpoint "
                    f"cannot be restored in-process: {exc!r}") from exc
            self._handles.append(local)
            return self._catch_up(local, followup)
        finally:
            self.recovery.recovery_seconds += time.perf_counter() - start

    def _catch_up(self, handle: _WorkerHandle,
                  followup: Optional[tuple]) -> tuple:
        """Bring a new host up to date by replay, then answer
        ``followup``."""
        last = self._replay(handle)
        if followup is None:
            return (last, None)
        return (last, self._roundtrip(handle, followup))

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def after_verified(self) -> None:
        """Take fingerprint-verified recovery checkpoints every
        ``checkpoint_interval`` streams and trim the journal behind
        them (so recovery replays from the checkpoint, not task 0)."""
        remote = self.remote_handles
        if remote:
            self._streams_since_checkpoint += 1
            if self._streams_since_checkpoint < self._checkpoint_interval:
                return
            self._streams_since_checkpoint = 0
        for handle in remote:
            base, _, live = self._request(handle, ("checkpoint",))
            if handle in self._handles:  # may have been lost during recovery
                handle.checkpoint = _Checkpoint(
                    self._journal_base + len(self._journal), base,
                    self._local[0].hosting.kept[0], live)
                self.recovery.checkpoints += 1
        # only worker processes replay: trim behind the oldest checkpoint
        floor = min((h.checkpoint.index for h in self.remote_handles),
                    default=self._journal_base + len(self._journal))
        if floor > self._journal_base:
            del self._journal[:floor - self._journal_base]
            self._journal_base = floor

    # ------------------------------------------------------------------
    # the analysis fan-out
    # ------------------------------------------------------------------
    def _analyze_replicas(self, stream, meanwhile):
        count = len(stream)
        structure = encode_structure(self.tree, self._known_regions)
        self._known_regions = len(self.tree.regions)
        # The active tracer's record level rides on the (journaled)
        # message: workers record as much as the driver does and ship it
        # home in the reply.
        entry = ("analyze", structure, encode_tasks(stream),
                 obs.active_tracer().level)
        if self.remote_handles:
            self._journal.append((entry, count))
        # phase 1: ship to every host (failures recover later, in phase
        # 4, once healthy pipes are drained); in-process hosts answer now
        pending: list[tuple] = []
        for handle in self._handles:
            try:
                self._shipped += handle.send(entry)
                pending.append((handle, True))
            except WorkerFault as exc:
                self._fault(handle, exc)
                pending.append((handle, False))
        # phase 2: the local hosting, then ``meanwhile``, while workers run
        rows = self._run_local(stream)
        meanwhile()
        # phase 3: collect replies; remember who faulted
        faulted = []
        for handle, sent in pending:
            if not sent:
                faulted.append(handle)
                continue
            try:
                rows.extend(self._reply(handle, entry))
            except WorkerFault as exc:
                self._fault(handle, exc)
                faulted.append(handle)
        # phase 4: recover faulted workers one at a time (every healthy
        # pipe is drained, so replay requests cannot interleave with
        # pending replies); the replay covers this entry
        for handle in faulted:
            last, _ = self._recover(handle)
            rows.extend(last)
        return sorted((ShardReport(*row) for row in rows),
                      key=lambda r: r.shard)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for handle in getattr(self, "_handles", []):
            if handle.conn is not None:
                try:
                    handle.conn.send_bytes(pickle.dumps(("stop",)))
                    handle.proc.join(timeout=5)
                except Exception:
                    pass
            self._kill(handle)
        self._handles = []

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Interpreter shutdown may have torn down imports in arbitrary
        # order: swallow everything, close() guards each step.
        try:
            self.close()
        except BaseException:
            pass


# ----------------------------------------------------------------------
def make_backend(spec: str | AnalysisBackend, tree: RegionTree,
                 algorithm: str, replicas: int,
                 max_workers: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 recv_timeout: Optional[float] = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_interval: int = 4,
                 clock=None) -> AnalysisBackend:
    """Build an analysis backend from a registry name (or pass through an
    already-constructed instance).  The fault-tolerance knobs (``faults``,
    ``recv_timeout``, ``retry``, ``checkpoint_interval``, ``clock``)
    apply to the process backend only — an *active* fault plan
    on an in-process backend is a configuration error."""
    if isinstance(spec, AnalysisBackend):
        return spec
    if spec == "process":
        return ProcessBackend(tree, algorithm, replicas,
                              max_workers=max_workers, faults=faults,
                              recv_timeout=recv_timeout, retry=retry,
                              checkpoint_interval=checkpoint_interval,
                              clock=clock)
    if faults is not None and faults.active:
        raise MachineError(
            f"fault injection requires the process backend, not {spec!r}")
    if spec == "serial":
        return SerialBackend(tree, algorithm, replicas)
    if spec == "thread":
        return ThreadBackend(tree, algorithm, replicas,
                             max_workers=max_workers)
    raise MachineError(
        f"unknown analysis backend {spec!r}; known: {BACKENDS}")
