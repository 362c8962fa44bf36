"""Golden ``explain`` test: a hand-built 4-task program over aliased
regions, with the witness chain checked edge by edge.

The program::

    task 0  init        read-write  R       (whole root, first writer)
    task 1  left        read-write  P[0]    (disjoint half)
    task 2  ghost-read  read        G[0]    (aliased, straddles P[0]/P[1])
    task 3  final       read-write  R       (whole root again)

Every algorithm must (a) witness every dependence edge it reports in
the graph with a concrete structure (history entry, equivalence set,
Z-buffer table), and (b) render those witnesses with task names,
domains, and via-descriptors.  Ray casting must additionally record
the dominating-write prunes ``final`` triggers.
"""

import numpy as np
import pytest

from repro import (ALGORITHMS, READ, READ_WRITE, Extent, IndexSpace,
                   RegionRequirement, RegionTree, Runtime)
from repro.obs import provenance as prov
from repro.obs import tracer as obs
from repro.obs.provenance import explain_task


def _run_golden(algo: str):
    tree = RegionTree(Extent((16,)), {"x": np.float64}, name="R")
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(0, 8), IndexSpace.from_range(8, 16)],
        disjoint=True, complete=True)
    G = tree.root.create_partition("G", [IndexSpace.from_range(4, 12)])
    tracer = obs.Tracer(witnesses=True)
    previous = obs.set_tracer(tracer)
    try:
        rt = Runtime(tree, {"x": np.zeros(16)}, algorithm=algo)
        rt.launch("init", [RegionRequirement(tree.root, "x", READ_WRITE)])
        rt.launch("left", [RegionRequirement(P[0], "x", READ_WRITE)])
        rt.launch("ghost-read", [RegionRequirement(G[0], "x", READ)])
        rt.launch("final", [RegionRequirement(tree.root, "x", READ_WRITE)])
    finally:
        obs.set_tracer(previous)
    return rt, prov.Witnesses(tracer.snapshot())


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_every_graph_edge_has_a_witness(algo):
    rt, led = _run_golden(algo)
    for task in rt.tasks:
        deps = rt.graph.dependences_of(task.task_id)
        witnessed = set()
        for rec in led.records_for(task.task_id):
            witnessed |= rec.dep_ids
        missing = set(deps) - witnessed
        assert not missing, (
            f"{algo}: task {task.task_id} ({task.name}) edges {missing} "
            f"have no provenance witness (deps={sorted(deps)}, "
            f"witnessed={sorted(witnessed)})")


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_golden_edges_name_concrete_witnesses(algo):
    rt, led = _run_golden(algo)

    # task 1 (left) overwrites half of init's write
    assert 0 in rt.graph.dependences_of(1)
    text1 = explain_task(led, 1, tasks=rt.tasks, edge=(0, 1))
    assert "task 1 (left)" in text1
    assert "edge 1 <- 0" in text1
    assert "task 0 (init)" in text1
    assert "read-write" in text1
    assert "via" in text1

    # task 2 (ghost-read) straddles left's half and init's remainder
    deps2 = rt.graph.dependences_of(2)
    assert 1 in deps2, f"{algo}: ghost-read must depend on left"
    text2 = explain_task(led, 2, tasks=rt.tasks)
    assert "task 2 (ghost-read)" in text2
    assert "field 'x' read on [4,11] n=8" in text2
    assert "task 1 (left)" in text2
    for src in sorted(deps2):
        assert f"edge 2 <- {src}" in text2, (algo, src, text2)

    # task 3 (final) must witness the reader
    assert 2 in rt.graph.dependences_of(3)
    text3 = explain_task(led, 3, tasks=rt.tasks, edge=(2, 3))
    assert "edge 3 <- 2" in text3
    assert "task 2 (ghost-read)" in text3
    assert "(read)" in text3


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_first_writer_reports_no_dependences(algo):
    rt, led = _run_golden(algo)
    text0 = explain_task(led, 0, tasks=rt.tasks)
    # init only interferes with the pre-program initial write (if the
    # algorithm tracks it as an edge, it renders as the sentinel)
    assert rt.graph.dependences_of(0) == frozenset()
    assert "task 0 (init)" in text0


def test_raycast_records_dominating_write_prunes():
    """``final``'s root-wide write dominates every equivalence set it
    touches: ray casting coalesces them and the ledger must say which
    candidate edges died that way."""
    rt, led = _run_golden("raycast")
    records = led.records_for(3, phase="materialize")
    assert records
    reasons = {p.reason for rec in records for p in rec.pruned}
    assert "dominated" in reasons, reasons
    text = explain_task(led, 3, tasks=rt.tasks)
    assert "pruned" in text
    assert "dominated" in text
    assert "via eqset" in text


def test_painter_witnesses_via_global_history():
    rt, led = _run_golden("painter")
    text = explain_task(led, 3, tasks=rt.tasks)
    assert "via global history" in text
    assert "history entry" in text


def test_zbuffer_witnesses_name_tables():
    rt, led = _run_golden("zbuffer")
    text2 = explain_task(led, 2, tasks=rt.tasks)
    assert "last_write entry" in text2
    assert "via element tables" in text2
    text3 = explain_task(led, 3, tasks=rt.tasks)
    assert "reader entry" in text3
