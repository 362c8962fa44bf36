"""Pluggable execution backends for replicated shard analysis.

:class:`~repro.distributed.sharded.ShardedRuntime` must run the same
dependence analysis once per control-replicated shard (the DCR contract);
the analyses share no mutable state and must reach bit-identical
conclusions.  Every replica is an analysis-only
:class:`~repro.runtime.context.Runtime` in a :class:`_Hosting` behind a
handle; three backends place and ask the hostings:

* :class:`SerialBackend` — all in-process, one after another (the
  reference semantics, and the fastest option for tiny streams);
* :class:`ThreadBackend` — all in-process, on a thread pool (NumPy
  kernels release the GIL, pure-Python scan code does not);
* :class:`ProcessBackend` — shard 0 in-process, the others in persistent
  worker processes fed pickled structural deltas and encoded task streams
  (never bodies); a worker returns fingerprints and timings, and a
  dependence dump only when asked, on mismatch.

Every backend asks a hosting one way, :meth:`AnalysisBackend._ask`, which
checks each reply by shape; the process backend recovers a faulted worker
in one loop, :meth:`ProcessBackend._recover`.  The deterministic-merge
verification of the reports lives in :mod:`repro.distributed.verify`.
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
    #: ``(base, shard 0's digest)`` a snapshot riding an analyze reply
    #: must match: the process backend's, once a marked window verifies.
    _due: Optional[tuple] = None

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
        a row per hosted shard and a snapshot — None, or, if a checkpoint
        is due, ``(base, digests, live blob)`` at its base with shard 0's
        digests.  Digest: the handle's checkpoint digest per shard.  Dump:
        ``count`` tuples of ints (any number if None).  The fragment (what
        a worker's tracer recorded) is absorbed, the result returned."""
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
            fits = type(result) is tuple and len(result) == 2
            snap, due = result[1] if fits else None, self._due
            fits = (fits and _rows_fit(result[0], handle.shards)
                    and (snap is None or due is None
                         or type(snap) is tuple
                         and tuple(map(type, snap)) == (int, list, bytes)
                         and snap[0] == due[0] and _rows_fit(
                             snap[1], handle.shards, (int, str), due[1])))
        elif command == "digest":
            fits = _rows_fit(result, handle.shards, (int, str),
                             handle.checkpoint.digest)
        else:
            fits = (type(result) is list and count in (None, len(result))
                    and all(type(row) is tuple
                            and all(type(t) is int for t in row)
                            for row in result))
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
        accept the recovery checkpoint of a verified window; in-process
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
    analyzes through :meth:`run`.  A :meth:`checkpoint` pickles the live
    state without the verified history, which the live runtimes drop when
    the next analyze message arrives: a ``dump`` is only asked for the
    window awaiting verification, and hosted replicas only ``launch``
    (never ``execute_trace``, whose recorder reads the graph).  A
    checkpoint reuses the last run's digests; a ``digest`` request (the
    restore check) hashes afresh."""

    def __init__(self, tree, runtimes: dict, base: int) -> None:
        self.tree = tree
        self.runtimes = runtimes
        self.base = base
        self.regions = {region.uid: region for region in tree.regions}
        #: ``{shard: structure digest}`` of the last run, if complete.
        self.kept: Optional[dict] = None
        #: Whether the last analyze message was marked; the snapshot the
        #: next analyze reply carries.
        self.marked, self.snapshot = False, None

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

    def analyze(self, structure, tasks, mark: bool) -> tuple:
        """:meth:`check` the message, apply its structure, then :meth:`run`
        the decoded tasks, so a message that cannot resolve changes
        nothing.  Returns the rows and the pending snapshot, whose trimmed
        history the live runtimes drop first; ``mark`` asks for the next."""
        apply_structure(self.regions, self.check(structure, tasks))
        snapshot, self.snapshot = self.snapshot, None
        for runtime in self.runtimes.values() if snapshot else ():
            runtime.trim(snapshot[0])
        rows = self.run([(name, [RegionRequirement(self.regions[uid], field,
                                                   decode_privilege(priv))
                                 for uid, field, priv in reqs], point)
                         for name, reqs, point in tasks], len(tasks))
        self.marked = mark
        return rows, snapshot

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
        run's digests (hashed afresh if none), and the live state ``(tree,
        runtimes, base)`` pickled with each runtime trimmed behind base."""
        digests = list(self.kept.items()) if self.kept else self.digests()
        return (self.base, digests, pickle.dumps((self.tree, {
            shard: runtime.trimmed(self.base)
            for shard, runtime in self.runtimes.items()}, self.base)))

    def idle(self) -> None:
        """Between requests, once a marked window is answered: take the
        :meth:`checkpoint` the next analyze reply carries."""
        if self.marked:
            self.marked, self.snapshot = False, self.checkpoint()


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
            return ("ok", hosting.analyze(msg[1], msg[2], msg[4]))
        if msg[0] == "dump":
            _, shard, lo, n = msg
            return ("ok", dependence_rows(hosting.runtimes[shard].graph,
                                          lo, n))
        if msg[0] == "digest":
            return ("ok", hosting.digests())
        return ("error", f"unknown command {msg[0]!r}")
    except Exception as exc:
        return ("error", repr(exc))


def _worker_main(conn, payload: bytes) -> None:  # pragma: no cover - subprocess
    """Worker loop: host replica runtimes, analyze shipped streams, reply
    with fingerprints, then snapshot a marked window while the driver
    executes it (:meth:`_Hosting.idle`); consult the shipped
    :class:`FaultPlan` before each request (the no-op default never
    fires)."""
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
            kind = event.kind if event is not None else None
            if kind != "drop":
                conn.send_bytes(b"\xde\xad\xbe\xef garbled frame"
                                if kind == "corrupt" else pickle.dumps(reply))
            del reply  # with any snapshot it carried, before the next one
            hosting.idle()
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _Checkpoint(NamedTuple):
    """A verified checkpoint as the parent keeps it: the reference
    replica's structure digest at its base, and the live-state blob (None
    before the first checkpoint)."""

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
        #: Last verified checkpoint (empty before the first), and the
        #: analyze messages answered since: what a recovery replays.
        self.checkpoint, self.journal = _Checkpoint(), []
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
        self.hosting.idle()
        return 0

    def recv(self) -> Optional[tuple]:
        return self._frame

    def load(self, frame: tuple) -> tuple:
        return frame


class ProcessBackend(AnalysisBackend):
    """Shard 0 hosted in-process, replicas 1..N-1 in persistent,
    *supervised* worker processes (forked where the platform allows it).

    A worker starts from a pickled genesis snapshot (region tree and
    algorithm), is sent each stream's structural delta and encoded tasks,
    and returns fingerprints and per-shard analysis seconds.  With fewer
    workers (``max_workers``) than remote replicas, one hosts several.

    Fault tolerance: every request goes through the one request path
    (:meth:`_ask`), every receive bounded by ``recv_timeout`` with
    liveness probes every :data:`HEARTBEAT` seconds.  A crash, hang or
    refused reply is recovered in one loop (:meth:`_recover`): respawn
    with backoff (``retry``), restore from the last verified checkpoint,
    replay of the journal; past its retries the worker is lost and its
    replicas move in-process.  Every ``checkpoint_interval``-th stream's
    message is marked: the worker answers it, then snapshots while the
    driver executes; the snapshot rides its next analyze reply and, the
    marked window verified (:meth:`after_verified`), is kept as its
    checkpoint, its journal emptied.  No one waits on a checkpoint.  It
    is the worker's live state alone, without the verified tasks and
    dependence rows; its digests, reused from the window's analysis on
    both sides, must equal shard 0's; a restore hashes afresh.  All
    activity is counted in :attr:`recovery` (:class:`RecoveryReport`).

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
        #: Streams every host has answered; every ``checkpoint_interval``-th
        #: is marked.
        self._windows = 0
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
        restored), the handle's journal, then the faulted request.  A
        worker's fault on the way is the episode's next attempt; the
        in-process host's is :class:`WorkerLost`."""
        if not handle.remote:
            raise fault
        self.recovery.record_fault(fault.kind)
        obs.instant(f"fault.{fault.kind}", "recovery",
                    worker=handle.worker_id)
        start = time.perf_counter()
        self.recovery.recoveries += 1
        restore = [("digest",)] if handle.checkpoint.live is not None else []
        todo = [*restore, *handle.journal, handle.asked]
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
        """The last stream verified: if it was marked, its checkpoint is
        due — a snapshot riding a next analyze reply must match shard 0's
        digest at its base, and is kept (recovery replays from there)."""
        if self._windows % self._checkpoint_interval == 0:
            self._due = (self.tasks_analyzed, self._local[0].hosting.kept[0])

    # ------------------------------------------------------------------
    # the analysis fan-out
    # ------------------------------------------------------------------
    def _analyze_replicas(self, stream, meanwhile):
        structure = encode_structure(self.tree, self._known_regions)
        self._known_regions = len(self.tree.regions)
        # The message carries the tracer's record level (workers record
        # as much as the driver) and, in a worker's copy, the mark; the
        # journal keeps it unmarked, so no snapshot rides a recovery.
        entry = ("analyze", structure, encode_tasks(stream),
                 obs.active_tracer().level, False)
        marked = entry[:4] + (
            (self._windows + 1) % self._checkpoint_interval == 0,)
        # phase 1: ship to every host; in-process hosts answer now
        hosts = list(self._handles)
        for handle in hosts:
            self.shipped_bytes += handle.send(
                marked if handle.remote else entry)
        # phase 2: the local hosting, then ``meanwhile``, while workers run
        rows = self._run_local(stream)
        meanwhile()
        # phase 3: collect every reply, keeping a due checkpoint that
        # rides one; remember who faulted and the first replica that
        # failed (raised once every pipe is read)
        faulted, failed = [], None
        for handle in hosts:
            try:
                got, snapshot = self._parse(handle, handle.recv(), "analyze")
            except WorkerFault as exc:
                faulted.append((handle, exc))
            except MachineError as exc:
                failed = failed or exc
            else:
                rows.extend(got)
                if snapshot is not None and self._due and handle.remote:
                    handle.checkpoint, handle.journal = _Checkpoint(
                        self._due[1], snapshot[2]), []
                    self.recovery.checkpoints += 1
        self._due = None
        # phase 4: recover faulted workers one at a time (every healthy
        # pipe is drained, so replay requests cannot interleave with
        # pending replies); each recovery answers this entry afresh
        for handle, exc in faulted:
            rows.extend(self._recover(handle, exc)[0])
        if failed is not None:
            raise failed
        self._windows += 1  # every host has answered it
        for handle in self._handles:
            if handle.remote:
                handle.journal.append(entry)
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
