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
Every backend asks a hosting one way, :meth:`AnalysisBackend._ask`, which
checks each reply by shape; the process backend recovers a faulted worker
in one loop, :meth:`ProcessBackend._recover`.
Every replica is an analysis-only :class:`~repro.runtime.context.Runtime`:
DCR replicates the analysis, not the values, which live only in
:class:`~repro.distributed.sharded.ShardedRuntime`.  The deterministic-merge
verification of the per-shard reports lives in :mod:`repro.distributed.verify`.
"""

from __future__ import annotations

import os
import pickle
import time
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
def dependence_rows(graph, base: int, count: int) -> list[tuple[int, ...]]:
    """Sorted dependence lists of tasks ``base .. base + count - 1``: the
    rows a divergence diff compares across shards."""
    return [tuple(sorted(graph.dependences_of(t)))
            for t in range(base, base + count)]


#: The types of one analyze row: ``(shard, fingerprint, seconds)``.
_ROW_TYPES = (int, str, float)


def _rows_fit(rows, shards, types: tuple = _ROW_TYPES,
              digest: Optional[str] = None) -> bool:
    """Whether ``rows`` is one row of ``types`` per hosted shard, names
    no other shard and, if ``digest`` is given, carries it second."""
    return (type(rows) is list
            and all(type(row) is tuple and tuple(map(type, row)) == types
                    and digest in (None, row[1]) for row in rows)
            and sorted(row[0] for row in rows) == sorted(shards))


def _check_knobs(max_workers: Optional[int] = None,
                 recv_timeout: Optional[float] = None,
                 checkpoint_interval: int = 1) -> None:
    """Refuse a worker cap or checkpoint interval below 1, or a receive
    timeout not above 0 (None: no cap, no bound), before anything spawns."""
    if not ((max_workers is None or max_workers >= 1)
            and (recv_timeout is None or recv_timeout > 0)
            and checkpoint_interval >= 1):
        raise MachineError(
            f"need max_workers >= 1, recv_timeout > 0 and "
            f"checkpoint_interval >= 1; got {max_workers}, {recv_timeout} "
            f"and {checkpoint_interval}")


class AnalysisBackend:
    """Runs the N replicated analyses of each executed stream.

    Every replica is a :class:`_Hosting` behind a handle, analysis-only
    and started from ``(tree, algorithm)``.  Shard 0's hosting shares the
    calling process and tree on every backend and is never checkpointed
    or trimmed, so :attr:`reference` holds the whole verified graph;
    backends differ in where replicas 1..N-1 are hosted.  A hosting is
    asked through one path, :meth:`_ask`, wherever it lives.
    """

    #: Registry name, overridden by each concrete backend.
    name = "abstract"
    #: Whether every replica is hosted on the driver's tree (else only
    #: shard 0 is).
    _all_local = True
    #: Total pickled payload shipped to remote replicas so far.
    shipped_bytes = 0

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

    def _analyze_replicas(self, stream: TaskStream,
                          meanwhile: Callable[[], None]
                          ) -> list[ShardReport]:
        """Run the analysis everywhere, calling ``meanwhile`` once on the
        way, and report per-shard results: here the serial backend's, the
        driver-tree hostings one after another."""
        rows = self._run_local(stream)
        meanwhile()
        return [ShardReport(*row) for row in rows]

    # ------------------------------------------------------------------
    # the one request path
    # ------------------------------------------------------------------
    def _ask(self, handle, message: tuple):
        """Ask one handle's hosting: ship ``message``, then wait for the
        reply and :meth:`_parse` it.  A refused reply is a
        :class:`CorruptReply`, raised here; the process backend overrides
        this to recover a faulted worker instead."""
        self.shipped_bytes += handle.send(message)
        return self._parse(handle, handle.recv(), message[0],
                           message[3] if message[0] == "dump" else None)

    def _parse(self, handle, blob, command: str,
               count: Optional[int] = None):
        """Decode one reply ``(status, result, fragment)``, rejecting it
        by shape before trusting its content: anything but a 3-tuple with
        status ``"ok"``/``"error"`` and a ``None`` or
        :meth:`~repro.obs.tracer.TraceBuffer.absorbable` fragment, or a
        result of the wrong shape, is a :class:`CorruptReply`.  Analyze:
        a row per hosted shard.  Digest: the handle's checkpoint digest
        per shard.  Dump: ``count`` tuples of ints (any number if None).
        Checkpoint: ``(base, digests, live blob)`` at this backend's base,
        every digest the one shard 0 kept from its last run.  The
        fragment (what a worker's tracer recorded) is absorbed into the
        active tracer, the result returned."""
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
            raise MachineError(f"analysis replica failed: {result}")
        if command == "analyze":
            fits = _rows_fit(result, handle.shards)
        elif command == "digest":
            fits = _rows_fit(result, handle.shards, (int, str),
                             handle.checkpoint.digest)
        elif command == "dump":
            fits = (type(result) is list and count in (None, len(result))
                    and all(type(row) is tuple
                            and all(type(t) is int for t in row)
                            for row in result))
        else:
            fits = (type(result) is tuple and len(result) == 3
                    and type(result[0]) is int
                    and result[0] == self.tasks_analyzed
                    and _rows_fit(result[1], handle.shards, (int, str),
                                  self._local[0].hosting.kept[0])
                    and type(result[2]) is bytes)
        if not fits:
            raise CorruptReply(
                f"worker {handle.worker_id} sent a {command} result that "
                f"does not fit its shards {handle.shards}")
        if fragment is not None:
            obs.active_tracer().absorb(fragment)
        return result

    def dump_dependences(self, shard: int, base: int,
                         count: int) -> list[tuple[int, ...]]:
        """One shard's sorted dependence lists for a task-id window, asked
        of whichever handle hosts the shard (divergence diagnostics; the
        happy path never calls this)."""
        for handle in self._local + self._handles:
            if shard in handle.shards:
                return self._ask(handle, ("dump", shard, base, count))
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

    def __enter__(self) -> "AnalysisBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(AnalysisBackend):
    """The reference backend: replicas analyzed one after another."""

    name = "serial"


class ThreadBackend(AnalysisBackend):
    """Replica analyses on a thread pool.

    Replicas share no mutable state (each owns its coherence-algorithm
    instances, meter and graph; the region tree is only read during
    analysis), so the analyses are safe to interleave.
    """

    name = "thread"

    def __init__(self, tree, algorithm, replicas,
                 max_workers: Optional[int] = None) -> None:
        _check_knobs(max_workers)
        super().__init__(tree, algorithm, replicas)
        self._pool = ThreadPoolExecutor(
            max_workers=min(replicas, max_workers or replicas),
            thread_name_prefix="shard-analysis")

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
        ``(shard, fingerprint, seconds)`` row each.  A fingerprint covers
        its replica's structure digest, hashed once and kept for the
        checkpoint that may follow.  Everything a replica records is
        attributed to its shard — tid ``shard`` always, pid ``shard + 1``
        for hosted replicas; the reference (shard 0) stays on the
        driver's pid — wherever the hosting lives: driver, pool thread,
        worker process or the parent-side fallback."""
        self.kept, kept, rows = None, {}, []
        for shard, runtime in self.runtimes.items():
            start = time.perf_counter()
            with obs.active_tracer().scope(pid=shard + 1 if shard else None,
                                           tid=shard), \
                    obs.span(f"analyze.shard{shard}", "distributed.replica",
                             shard=shard, tasks=count):
                for name, requirements, point in launches:
                    runtime.launch(name, requirements, None, point)
            seconds = time.perf_counter() - start
            kept[shard] = structure_fingerprint(runtime)
            rows.append((shard, analysis_fingerprint(
                runtime, self.base, count, kept[shard]), seconds))
        self.base += count
        self.kept = kept
        return rows

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
    (``mode="restore"``), or the genesis snapshot.  A live state that
    does not unpickle is a :class:`CorruptReply`, as the worker's
    checkpoint reply it came in would have been."""
    if spec["mode"] == "restore":
        try:
            return _Hosting(*pickle.loads(spec["live"]))
        except Exception as exc:
            raise CorruptReply(f"checkpoint does not open: {exc!r}") from exc
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
    """A verified checkpoint as the parent keeps it: the journal index it
    covers, the reference replica's structure digest at its base, and
    the live-state blob (None before the first checkpoint)."""

    index: int = 0
    digest: str = ""
    live: Optional[bytes] = None


class _WorkerHandle:
    """Parent-side bookkeeping for one supervised worker process, and
    the wire it is reached over: :meth:`send` ships a request,
    :meth:`recv` waits for the reply bytes, :meth:`load` unpickles them
    (the trust boundary: a frame is shape-checked by
    :meth:`AnalysisBackend._parse` before anything in it is used)."""

    remote = True

    def __init__(self, worker_id: int, shards, clock=None,
                 timeout: Optional[float] = None) -> None:
        self.worker_id = worker_id
        self.shards = list(shards)
        self.clock = clock
        self.timeout = timeout
        self.proc = None
        self.conn = None
        self.incarnation = -1  # first spawn brings it to 0
        #: Last verified checkpoint (empty before the first).
        self.checkpoint = _Checkpoint()
        #: The last request sent: the one a recovery answers afresh.
        self.asked: Optional[tuple] = None

    def send(self, message: tuple) -> int:
        """Ship one request; returns the bytes shipped.  A pipe that
        cannot take it is left for :meth:`recv` to find dead."""
        self.asked = message
        blob = pickle.dumps(message)
        try:
            self.conn.send_bytes(blob)
        except (OSError, AttributeError):
            pass
        return len(blob)

    def recv(self):
        """Bounded receive: poll every :data:`HEARTBEAT` seconds, probing
        liveness between polls; raises :class:`WorkerCrashed` on death,
        :class:`WorkerHung` when ``timeout`` passes on ``clock``."""
        deadline = (None if self.timeout is None
                    else self.clock.monotonic() + self.timeout)
        while True:
            try:
                if self.conn.poll(HEARTBEAT):
                    return self.conn.recv_bytes()
            except (EOFError, OSError, AttributeError) as exc:
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
            if deadline is not None and self.clock.monotonic() >= deadline:
                raise WorkerHung(
                    f"worker {self.worker_id} sent no reply within "
                    f"{self.timeout}s")

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
    pickled.  Its reply is checked like a worker's; there is no worker to
    respawn, so a refused one is raised."""

    remote = False

    def __init__(self, hosting: _Hosting, worker_id: int = -1,
                 checkpoint: _Checkpoint = _Checkpoint()):
        super().__init__(worker_id, hosting.runtimes)
        self.checkpoint = checkpoint
        self.hosting = hosting
        self._frame: Optional[tuple] = None

    def send(self, message: tuple) -> int:
        self.asked = message
        self._frame = _dispatch(message, self.hosting) + (None,)
        return 0

    def recv(self) -> Optional[tuple]:
        return self._frame

    def load(self, frame: tuple) -> tuple:
        return frame


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

    Fault tolerance: every request goes through the one request path
    (:meth:`_ask`), and every receive is bounded by ``recv_timeout``
    with liveness probes every :data:`HEARTBEAT` seconds.  A crash (EOF /
    dead process), hang (timeout) or refused reply is recovered in one
    loop (:meth:`_recover`): respawn with exponential backoff
    (``retry``), restore from the last verified checkpoint, replay of
    the journal; past its retries the worker is declared lost and its
    replicas move in-process (graceful degradation to serial-backend
    semantics).  Checkpoints are taken every ``checkpoint_interval``
    verified streams (see :meth:`after_verified`), and the journal is
    trimmed behind them.  A checkpoint is a worker's live state alone:
    its runtimes drop the verified tasks and dependence rows first, and
    its structure digests must equal shard 0's.  A checkpoint reuses the
    verified window's digests, on both sides; a restore hashes fresh.
    All activity is counted in :attr:`recovery` (:class:`RecoveryReport`).

    ``max_workers`` and ``checkpoint_interval`` below 1 and a
    ``recv_timeout`` not above 0 are refused before any worker spawns.
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
        _check_knobs(max_workers, recv_timeout, checkpoint_interval)
        super().__init__(tree, algorithm, replicas)
        import multiprocessing as mp

        self._faults = faults if faults is not None else NO_FAULTS
        self._retry = retry if retry is not None else RetryPolicy()
        self._checkpoint_interval = checkpoint_interval
        self._clock = clock if clock is not None else SystemClock()
        self.recovery = RecoveryReport()
        self._known_regions = len(tree.regions)
        #: Journal of the analyze messages every worker has answered;
        #: ``_journal_base`` is the absolute index of ``_journal[0]``
        #: (entries behind every worker's checkpoint are trimmed).
        self._journal: list[tuple] = []
        self._journal_base = 0
        remote = list(range(1, replicas))
        if not remote:
            return
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        workers = min(len(remote), max_workers or len(remote))
        #: Spawn-time snapshot; respawns-from-scratch and in-process
        #: fallbacks reuse these exact bytes so every incarnation
        #: observes the identical starting state.
        self._genesis = pickle.dumps((tree, algorithm))
        for worker_id in range(workers):
            handle = _WorkerHandle(worker_id, remote[worker_id::workers],
                                   self._clock, recv_timeout)
            self._spawn(handle)
            self._handles.append(handle)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    @property
    def handles(self) -> tuple:
        """The live worker/local handles (tests and introspection)."""
        return tuple(self._handles)

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
        self.shipped_bytes += len(payload)
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, payload), daemon=True)
        proc.start()
        child_conn.close()
        handle.proc, handle.conn = proc, parent_conn
        if handle.incarnation > 0:
            self.recovery.respawns += 1
            obs.instant("respawn", "recovery", worker=handle.worker_id,
                        incarnation=handle.incarnation)

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
    # supervision: the one request path, and one recovery loop
    # ------------------------------------------------------------------
    def _ask(self, handle: _WorkerHandle, message: tuple):
        """The one request path, supervised: a worker's fault is
        recovered, and the recovery answers ``message`` afresh."""
        try:
            return super()._ask(handle, message)
        except WorkerFault as exc:
            return self._recover(handle, exc)

    def _recover(self, handle: _WorkerHandle, fault: WorkerFault):
        """One recovery episode for a worker that raised ``fault``;
        returns the answer to the request it faulted on (``handle.asked``).
        An in-process host's fault is raised: there is no worker to
        respawn.

        Each attempt kills the worker, backs off and respawns it; the
        attempt after ``retry.max_retries`` retries declares it lost and
        hosts its replicas in-process instead.  Either host starts from
        the handle's checkpoint, and is caught up by one replay: a
        ``digest`` request that must answer the checkpoint's digest (if
        restored), every journaled stream since the checkpoint, then the
        faulted request.  A worker's fault on the way is the episode's
        next attempt; the in-process host's is :class:`WorkerLost`."""
        if not handle.remote:
            raise fault
        self.recovery.record_fault(fault.kind)
        obs.instant(f"fault.{fault.kind}", "recovery",
                    worker=handle.worker_id)
        start = time.perf_counter()
        self.recovery.recoveries += 1
        restore = [("digest",)] if handle.checkpoint.live is not None else []
        todo = [*restore, *self._journal[
            handle.checkpoint.index - self._journal_base:], handle.asked]
        streams = sum(message[0] == "analyze" for message in todo)
        try:
            for attempt in range(self._retry.max_retries + 2):
                lost = attempt > self._retry.max_retries
                self._kill(handle)
                if lost:
                    self.recovery.workers_lost += 1
                    self.recovery.local_fallbacks += 1
                    self._handles.remove(handle)
                    obs.instant("local_fallback", "recovery",
                                worker=handle.worker_id,
                                shards=list(handle.shards))
                else:
                    self.recovery.retries += 1
                    delay = self._retry.delay(attempt)
                    if delay > 0:
                        self._clock.sleep(delay)
                    self._spawn(handle)
                host = handle
                try:
                    if lost:
                        host = _LocalHandle(
                            _open_hosting(self._host_spec(handle)),
                            handle.worker_id, handle.checkpoint)
                        self._handles.append(host)
                    if streams:
                        obs.instant("replay", "recovery",
                                    worker=handle.worker_id, streams=streams)
                    for message in todo:
                        answer = super()._ask(host, message)
                        if message[0] == "digest":
                            self.recovery.restores += 1
                        elif message[0] == "analyze":
                            self.recovery.replayed_streams += 1
                            self.recovery.replayed_tasks += \
                                len(message[2]) * len(host.shards)
                    return answer
                except WorkerFault as exc:
                    if lost:
                        raise WorkerLost(
                            f"worker {handle.worker_id} lost and its "
                            f"checkpoint cannot be restored in-process: "
                            f"{exc!r}") from exc
                    self.recovery.record_fault(exc.kind)
        finally:
            self.recovery.recovery_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def after_verified(self) -> None:
        """Take fingerprint-verified recovery checkpoints once
        ``checkpoint_interval`` streams are journaled since the last, and
        trim the journal behind them (so recovery replays from the
        checkpoint, not task 0; the journal holds just those streams)."""
        remote = [h for h in self._handles if h.remote]
        if remote and len(self._journal) < self._checkpoint_interval:
            return
        for handle in remote:
            _, _, live = self._ask(handle, ("checkpoint",))
            if handle in self._handles:  # may have been lost during recovery
                handle.checkpoint = _Checkpoint(
                    self._journal_base + len(self._journal),
                    self._local[0].hosting.kept[0], live)
                self.recovery.checkpoints += 1
        # only worker processes replay: trim behind the oldest checkpoint
        floor = min((h.checkpoint.index for h in self._handles if h.remote),
                    default=self._journal_base + len(self._journal))
        if floor > self._journal_base:
            del self._journal[:floor - self._journal_base]
            self._journal_base = floor

    # ------------------------------------------------------------------
    # the analysis fan-out
    # ------------------------------------------------------------------
    def _analyze_replicas(self, stream, meanwhile):
        structure = encode_structure(self.tree, self._known_regions)
        self._known_regions = len(self.tree.regions)
        # The active tracer's record level rides on the (journaled)
        # message: workers record as much as the driver does and ship it
        # home in the reply.
        entry = ("analyze", structure, encode_tasks(stream),
                 obs.active_tracer().level)
        # phase 1: ship to every host; in-process hosts answer now
        hosts = list(self._handles)
        for handle in hosts:
            self.shipped_bytes += handle.send(entry)
        # phase 2: the local hosting, then ``meanwhile``, while workers run
        rows = self._run_local(stream)
        meanwhile()
        # phase 3: collect every reply; remember who faulted and the
        # first replica that failed (raised once every pipe is read)
        faulted, failed = [], None
        for handle in hosts:
            try:
                rows.extend(self._parse(handle, handle.recv(), "analyze"))
            except WorkerFault as exc:
                faulted.append((handle, exc))
            except MachineError as exc:
                failed = failed or exc
        # phase 4: recover faulted workers one at a time (every healthy
        # pipe is drained, so replay requests cannot interleave with
        # pending replies); each recovery answers this entry afresh
        for handle, exc in faulted:
            rows.extend(self._recover(handle, exc))
        if failed is not None:
            raise failed
        self._journal.append(entry)  # every worker has answered it
        return sorted((ShardReport(*row) for row in rows),
                      key=lambda r: r.shard)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for handle in getattr(self, "_handles", []):
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
    on an in-process backend is a configuration error, and so is a
    ``max_workers`` below 1, a ``recv_timeout`` not above 0 or a
    ``checkpoint_interval`` below 1 on any backend."""
    if isinstance(spec, AnalysisBackend):
        return spec
    _check_knobs(max_workers, recv_timeout, checkpoint_interval)
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
