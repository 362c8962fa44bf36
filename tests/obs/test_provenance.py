"""Unit tests for dependence provenance: the witness payload the tracer
records on access spans, the typed :class:`Witnesses` view over a trace
buffer (shard / tenant attribution read off the surrounding spans), the
stable (``id()``-free) wire format, and the ``explain`` rendering."""

import pickle
import threading
from contextlib import contextmanager

from repro import READ, READ_WRITE, IndexSpace, Runtime
from repro import reduce as reduce_priv
from repro.obs import tracer as obs
from repro.obs.provenance import (AGGREGATE_SRC, DRIVER_SHARD, INITIAL_SRC,
                                  AccessRecord, EdgeWitness, PruneRecord,
                                  Witnesses, describe_access, domain_desc,
                                  explain_task, format_domain,
                                  privilege_label)
from repro.obs.tracer import Tracer

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


@contextmanager
def access(tracer, task_id, field, algorithm, privilege, space,
           phase="materialize"):
    """One access the way the runtime records it: a ``task`` span whose
    child — the algorithm's materialize/commit span — is the record."""
    with tracer.span("t", "task", task_id=task_id):
        with tracer.span(phase, f"visibility.{algorithm}") as led:
            describe_access(led, field, algorithm, privilege, space, phase)
            yield led


def witnesses(tracer):
    return Witnesses(tracer.snapshot())


# ----------------------------------------------------------------------
# descriptors
# ----------------------------------------------------------------------
def test_privilege_labels():
    assert privilege_label(READ) == "read"
    assert privilege_label(READ_WRITE) == "read-write"
    assert privilege_label(reduce_priv("sum")) == "reduce(sum)"


def test_domain_desc_is_content_based():
    space = IndexSpace.from_range(4, 12)
    assert domain_desc(space) == (4, 11, 8)
    assert format_domain((4, 11, 8)) == "[4,11] n=8"
    assert domain_desc(IndexSpace.from_indices([])) == (0, -1, 0)
    assert format_domain((0, -1, 0)) == "[] n=0"


# ----------------------------------------------------------------------
# record lifecycle
# ----------------------------------------------------------------------
def test_disabled_ledger_records_nothing():
    """Below the witness level the analysis is handed no ``led`` and the
    view finds no records — spans-only and disabled tracers alike."""
    tree, P, G = make_fig1_tree()
    for tracer in (Tracer(), Tracer(enabled=False)):
        previous = obs.set_tracer(tracer)
        try:
            rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
            rt.replay(fig1_stream(tree, P, G, 1))
        finally:
            obs.set_tracer(previous)
        assert len(witnesses(tracer)) == 0
        assert not any("phase" in s.args for s in tracer.snapshot().spans)


def test_record_lifecycle_and_queries():
    t = Tracer()
    space = IndexSpace.from_range(0, 8)
    with access(t, 5, "x", "raycast", READ_WRITE, space) as led:
        led.set_source(("eqset", 0, 7, 8))
        led.edge(3, "eqset", "read", (0, 7, 8))
        led.edge(4, "summary", "read-write", (0, 3, 4), collapsed=(1, 2))
        led.prune(0, "dominated", (0, 7, 8))
        led.visit("eqsets", 2)
        led.visit("eqsets")
    led = witnesses(t)
    assert len(led) == 1
    (rec,) = led.records_for(5)
    assert rec.phase == "materialize"
    assert rec.shard == DRIVER_SHARD
    assert rec.privilege == "read-write"
    assert rec.domain == (0, 7, 8)
    assert rec.dep_ids == {1, 2, 3, 4}
    assert rec.visited == {"eqsets": 3}
    assert rec.edges[0].via == ("eqset", 0, 7, 8)
    assert rec.pruned[0].reason == "dominated"
    assert led.records_for(5, phase="commit") == []
    assert led.records_for(99) == []


def test_end_access_drops_empty_when_asked():
    """A commit (or replay) that witnessed nothing is not a record; an
    empty materialize is ("no dependences" is an answer)."""
    t = Tracer()
    space = IndexSpace.from_range(0, 4)
    with access(t, 0, "x", "painter", READ, space, phase="commit"):
        pass
    with access(t, 0, "x", "painter", READ, space, phase="replay"):
        pass
    assert len(witnesses(t)) == 0
    with access(t, 0, "x", "painter", READ, space):
        pass
    assert len(witnesses(t)) == 1


def test_hooks_without_open_record_are_noops():
    """An access span outside any task (``read_field``'s observation) is
    recorded as a span but is nobody's access record."""
    t = Tracer()
    with t.span("materialize", "visibility.raycast") as led:
        describe_access(led, "x", "raycast", READ,
                        IndexSpace.from_range(0, 4), "materialize")
        led.edge(1, "history", "read", (0, 3, 4))
        led.prune(1, "disjoint", (0, 3, 4))
        led.visit("eqsets")
    assert len(t.snapshot().spans) == 1
    assert len(witnesses(t)) == 0


def test_shard_scope_tags_and_restores():
    t = Tracer()
    space = IndexSpace.from_range(0, 4)
    with t.scope(tid=2):
        with access(t, 0, "x", "warnock", READ, space):
            pass
        with t.scope(tid=5):
            with access(t, 1, "x", "warnock", READ, space):
                pass
        with access(t, 2, "x", "warnock", READ, space):
            pass
    with access(t, 3, "x", "warnock", READ, space):
        pass
    led = witnesses(t)
    shards = {r.task_id: r.shard for r in led.records}
    assert shards == {0: 2, 1: 5, 2: 2, 3: DRIVER_SHARD}


def test_drain_and_absorb():
    t = Tracer()
    space = IndexSpace.from_range(0, 4)
    with access(t, 0, "x", "painter", READ, space):
        pass
    drained = t.drain()
    assert len(Witnesses(drained)) == 1 and len(witnesses(t)) == 0
    t.absorb(drained)
    t.absorb(obs.TraceBuffer())
    assert len(witnesses(t)) == 1


def test_thread_local_open_records():
    """Two threads interleaving accesses never corrupt each other."""
    t = Tracer()
    space = IndexSpace.from_range(0, 4)
    barrier = threading.Barrier(2)

    def work(task_id):
        with t.scope(tid=task_id):
            with access(t, task_id, "x", "raycast", READ, space) as led:
                barrier.wait()
                led.edge(100 + task_id, "eqset", "read", (0, 3, 4))

    threads = [threading.Thread(target=work, args=(i,)) for i in (1, 2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    led = witnesses(t)
    for task_id in (1, 2):
        (rec,) = led.records_for(task_id)
        assert rec.shard == task_id
        assert rec.dep_ids == {100 + task_id}


# ----------------------------------------------------------------------
# stable wire format (satellite: id()-free, pickle-safe records)
# ----------------------------------------------------------------------
def _assert_primitive(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return
    if isinstance(value, tuple):
        for item in value:
            _assert_primitive(item)
        return
    if isinstance(value, (EdgeWitness, PruneRecord)):
        for name in value.__dataclass_fields__:
            _assert_primitive(getattr(value, name))
        return
    raise AssertionError(f"non-primitive in wire record: {value!r}")


def _normalized(records, keep_shard=True):
    out = []
    for rec in records:
        out.append((rec.shard if keep_shard else None, rec.task_id,
                    rec.phase, rec.field, rec.algorithm, rec.privilege,
                    rec.domain, tuple(rec.edges), tuple(rec.pruned),
                    tuple(sorted(rec.visited.items()))))
    return sorted(out, key=repr)


def _sharded_records(backend, shards=2):
    from repro.distributed import ShardedRuntime

    tree, P, G = make_fig1_tree()
    tracer = Tracer(witnesses=True)
    previous = obs.set_tracer(tracer)
    try:
        with ShardedRuntime(tree, fig1_initial(tree), shards=shards,
                            algorithm="raycast", backend=backend) as srt:
            srt.analyze(fig1_stream(tree, P, G, 2))
    finally:
        obs.set_tracer(previous)
    return witnesses(tracer).records


def test_records_are_primitive_and_pickle_stable():
    records = _sharded_records("serial")
    assert records
    for rec in records:
        assert isinstance(rec, AccessRecord)
        for witness in rec.edges:
            _assert_primitive(witness)
        for pruned in rec.pruned:
            _assert_primitive(pruned)
        _assert_primitive(rec.domain)
    round_tripped = pickle.loads(pickle.dumps(records))
    assert round_tripped == records


def test_process_backend_round_trip_matches_serial():
    """The regression this wire format exists for: records shipped home
    from worker processes must equal the serial backend's in-memory
    records exactly (same shard tags, same content descriptors — no
    process-local uids leaking into the format)."""
    serial = _normalized(_sharded_records("serial"))
    process = _normalized(_sharded_records("process"))
    assert process == serial
    shards = {rec[0] for rec in process}
    assert shards == {0, 1}


# ----------------------------------------------------------------------
# explain rendering
# ----------------------------------------------------------------------
def test_explain_no_records_message():
    text = explain_task(witnesses(Tracer()), 7)
    assert "no provenance recorded" in text


def test_explain_renders_witnesses_and_sentinels():
    t = Tracer()
    space = IndexSpace.from_range(0, 8)
    with access(t, 3, "x", "tree_painter", READ_WRITE, space) as led:
        led.set_source(("treenode", 4))
        led.edge(INITIAL_SRC, "history", "read-write", (0, 7, 8))
        led.edge(2, "summary", "read", (0, 3, 4), collapsed=(0, 1))
        led.prune(AGGREGATE_SRC, "view_occluded", (0, 7, 8))
    text = explain_task(witnesses(t), 3)
    assert "task 3" in text
    assert "[materialize] field 'x' read-write on [0,7] n=8" in text
    assert "initial write (pre-program state)" in text
    assert "summarizing tasks [0, 1]" in text
    assert "composite view (aggregated)" in text
    assert "view_occluded" in text
    assert "tree node (region uid 4)" in text


def test_explain_edge_filter():
    t = Tracer()
    space = IndexSpace.from_range(0, 8)
    with access(t, 5, "x", "raycast", READ, space) as led:
        led.set_source(("eqset", 0, 7, 8))
        led.edge(1, "eqset", "read-write", (0, 7, 8))
        led.edge(2, "eqset", "read-write", (0, 7, 8))
    led = witnesses(t)
    text = explain_task(led, 5, edge=(1, 5))
    assert "edge 5 <- 1" in text
    assert "edge 5 <- 2" not in text
    missing = explain_task(led, 5, edge=(9, 5))
    assert "no witness for edge 5 <- 9" in missing


def test_explain_uses_task_names():
    tree, P, G = make_fig1_tree()
    tracer = Tracer(witnesses=True)
    previous = obs.set_tracer(tracer)
    try:
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
        rt.replay(fig1_stream(tree, P, G, 1))
    finally:
        obs.set_tracer(previous)
    task_id = 5
    text = explain_task(witnesses(tracer), task_id, tasks=rt.tasks)
    assert f"task {task_id} ({rt.tasks[task_id].name})" in text


# ----------------------------------------------------------------------
# tenant attribution (the analysis-service isolation seam)
# ----------------------------------------------------------------------
def test_tenant_scope_stamps_records():
    """The tenant is read off the enclosing ``service.session`` span."""
    t = Tracer()
    space = IndexSpace.from_range(0, 4)
    with t.span("session", "service.session", tenant="alice"):
        with access(t, 0, "x", "raycast", READ, space):
            pass
        # a replica's shard scope inside the session keeps the tenant
        with t.scope(tid=3):
            with access(t, 1, "x", "raycast", READ, space):
                pass
    with access(t, 2, "x", "raycast", READ, space):
        pass
    led = witnesses(t)
    tenants = {r.task_id: r.tenant for r in led.records}
    assert tenants == {0: "alice", 1: "alice", 2: ""}
    assert led.records_for(1)[0].shard == 3
    assert len(led.records_for(1, tenant="alice")) == 1
    assert led.records_for(1, tenant="bob") == []


def test_absorb_stamps_thread_local_tenant_on_untagged():
    """Worker-shard fragments know no tenant; absorbing them inside a
    session span hangs them under it, which claims them for that tenant
    (without overwriting a tenant the fragment already names)."""
    t = Tracer()
    space = IndexSpace.from_range(0, 4)
    worker = Tracer()
    with access(worker, 0, "x", "raycast", READ, space):
        pass
    with worker.span("session", "service.session", tenant="bob"):
        with access(worker, 1, "x", "raycast", READ, space):
            pass
    fragment = worker.drain()
    with t.span("session", "service.session", tenant="alice"):
        t.absorb(fragment)
    tenants = sorted(r.tenant for r in witnesses(t).records)
    assert tenants == ["alice", "bob"]
