"""Columnar histories: one dependence scan, two equivalent front-ends.

The tentpole property: for any privilege mix (reads, writes, reductions
with distinct operators, collapsed summaries), any query space, any
pre-collected dependence set and any history container (list, generator,
``ColumnarHistory``), ``scan_dependences`` produces the dependences, meter
totals and provenance edge/prune records of a brute-force entry-at-a-time
spec.  History lengths straddle ``SCAN_VECTOR_MIN``, so both the scalar
and the vector front-end are covered.  Plus the scan-path regression the
columnar refactor's audit surfaced: entries already collected in ``deps``
at scan start must not reach the batched kernel at all.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.visibility.history as hist_mod
from repro.geometry.index_space import IndexSpace
from repro.obs import provenance as prov
from repro.obs.tracer import Tracer
from repro.privileges import READ, READ_WRITE, reduce
from repro.visibility.history import (SCAN_VECTOR_MIN, ColumnarHistory,
                                      HistoryEntry, PrivilegeColumns,
                                      RegionValues, interference_mask,
                                      scan_dependences)
from repro.visibility.meter import CostMeter

from tests.conftest import index_spaces

PRIVILEGES = [READ, READ_WRITE, reduce("sum"), reduce("max")]
CONTAINERS = {"list": list, "generator": iter, "columnar": ColumnarHistory}


def make_entry(privilege, indices, task_id, collapsed=frozenset()):
    domain = IndexSpace.from_indices(indices)
    if privilege.is_read:
        values = None
    else:
        values = RegionValues(domain,
                              np.arange(domain.size, dtype=np.float64))
    return HistoryEntry(privilege, domain, values, task_id, collapsed)


def spec_scan(entries, privilege, space, seed_deps=()):
    """Figure 7's dependence scan, one entry at a time — the spec."""
    deps, counts, edges, pruned = set(seed_deps), Counter(), [], []
    points = set(space.indices.tolist())
    for e in entries:
        counts["entries_scanned"] += 1
        if e.task_id in deps and not e.collapsed_ids:
            continue
        if not privilege.interferes(e.privilege):
            continue
        counts["intersection_tests"] += 1
        if points & set(e.domain.indices.tolist()):
            deps |= {e.task_id} | e.collapsed_ids
            edges.append(e)
        else:
            pruned.append(e)
    return deps, dict(counts), edges, pruned


def run_spec(entries, privilege, space, seed_deps=()):
    """The spec's observables in the shape :func:`run_scan` reports."""
    deps, counts, edges, pruned = spec_scan(entries, privilege, space,
                                            seed_deps)
    return (deps, counts,
            [(e.task_id, "summary" if e.collapsed_ids else "history",
              prov.privilege_label(e.privilege), prov.domain_desc(e.domain),
              tuple(sorted(e.collapsed_ids))) for e in edges],
            [(e.task_id, "disjoint", prov.domain_desc(e.domain))
             for e in pruned])


def run_scan(entries, privilege, space, container="columnar", seed_deps=()):
    """One scan under a fresh meter and access span; returns every
    observable."""
    deps = set(seed_deps)
    meter = CostMeter()
    tracer = Tracer()
    with tracer.span("t", "task", task_id=10**6), \
            tracer.span("materialize", "visibility.test") as led:
        prov.describe_access(led, "x", "test", privilege, space,
                             "materialize")
        scan_dependences(privilege, space, CONTAINERS[container](entries),
                         deps, meter, led)
    (record,) = prov.Witnesses(tracer.snapshot()).records
    return (deps, meter.snapshot(),
            [(w.src, w.kind, w.privilege, w.domain, w.collapsed)
             for w in record.edges],
            [(p.src, p.reason, p.domain) for p in record.pruned])


# ----------------------------------------------------------------------
# the equivalence property
# ----------------------------------------------------------------------
entry_spec = st.tuples(st.integers(0, len(PRIVILEGES) - 1),
                       st.lists(st.integers(0, 40), min_size=0, max_size=10),
                       st.booleans(),   # collapsed summary?
                       st.booleans())   # reuse the previous task id?


@st.composite
def histories(draw):
    """Entry lists whose lengths sit on both sides of the front-end
    switch."""
    n = draw(st.sampled_from([0, 1, 2, 3, SCAN_VECTOR_MIN - 1,
                              SCAN_VECTOR_MIN, SCAN_VECTOR_MIN + 1,
                              2 * SCAN_VECTOR_MIN]))
    specs = draw(st.lists(entry_spec, min_size=n, max_size=n))
    entries = []
    for i, (pk, indices, collapsed, dup) in enumerate(specs):
        task_id = max(0, i - 1) if dup else i
        if collapsed and indices:
            entries.append(make_entry(
                READ_WRITE, indices, task_id,
                frozenset({1000 + 2 * i, 1001 + 2 * i})))
        else:
            entries.append(make_entry(PRIVILEGES[pk], indices, task_id))
    return entries


class TestColumnarEquivalence:
    @given(entries=histories(),
           pk=st.integers(0, len(PRIVILEGES) - 1),
           space=index_spaces(max_index=48, min_size=0, max_size=16),
           seed=st.lists(st.integers(0, 2 * SCAN_VECTOR_MIN), max_size=4))
    def test_scan_matches_object_walk(self, entries, pk, space, seed):
        privilege = PRIVILEGES[pk]
        want = run_spec(entries, privilege, space, seed)
        for container in CONTAINERS:
            assert run_scan(entries, privilege, space, container,
                            seed) == want, container

    def test_empty_history(self):
        space = IndexSpace.from_indices([1, 2, 3])
        for container in CONTAINERS:
            assert run_scan([], READ_WRITE, space, container) == \
                (set(), {}, [], [])

    def test_single_entry(self):
        space = IndexSpace.from_indices([1, 2, 3])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        for container in CONTAINERS:
            deps, counts, edges, pruned = run_scan(
                [entry], READ, space, container)
            assert deps == {7}
            assert counts == {"entries_scanned": 1,
                              "intersection_tests": 1}
            assert len(edges) == 1 and pruned == []

    def test_single_disjoint_entry(self):
        space = IndexSpace.from_indices([10, 11])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        for container in CONTAINERS:
            deps, counts, edges, pruned = run_scan(
                [entry], READ, space, container)
            assert deps == set()
            assert counts == {"entries_scanned": 1,
                              "intersection_tests": 1}
            assert edges == [] and len(pruned) == 1

    def test_empty_query_space(self):
        space = IndexSpace.from_indices([])
        entries = [make_entry(READ_WRITE, [1, 2], i) for i in range(3)]
        want = run_spec(entries, READ, space)
        assert want[0] == set()
        for container in CONTAINERS:
            assert run_scan(entries, READ, space, container) == want

    def test_long_same_operator_reduction_history(self):
        """Pennant's ``dt`` pattern: one opening write, then 2047
        same-operator reductions.  Only the write interferes: one
        dependence and one intersection test per scan, every entry
        counted, on a meter shared by all the scans."""
        n, length, scans = 4096, 2048, 3
        privilege = reduce("sum")
        entries = [make_entry(READ_WRITE, range(n), 0)]
        for i in range(1, length):
            lo = (i * 17) % (n - 64)
            entries.append(make_entry(privilege, range(lo, lo + 64), i))
        history = ColumnarHistory(entries)
        space = IndexSpace.from_indices(range(128, 256))
        meter = CostMeter()
        for _ in range(scans):
            deps = set()
            scan_dependences(privilege, space, history, deps, meter)
            assert deps == {0}
        assert meter.snapshot() == {"entries_scanned": scans * length,
                                    "intersection_tests": scans}


# ----------------------------------------------------------------------
# the container itself
# ----------------------------------------------------------------------
class TestColumnarHistory:
    def test_list_protocol_and_columns(self):
        entries = [make_entry(READ, [1], 0),
                   make_entry(reduce("sum"), [2, 3], 1),
                   make_entry(READ_WRITE, [4], 2,
                              frozenset({10, 11}))]
        hist = ColumnarHistory(entries)
        assert len(hist) == 3 and bool(hist)
        assert list(hist) == entries
        assert hist[1] is entries[1]
        assert hist[-1] is entries[2]
        assert hist == entries  # list equality
        assert hist.kinds.tolist() == [hist_mod.KIND_READ,
                                       hist_mod.KIND_REDUCE,
                                       hist_mod.KIND_WRITE]
        assert hist.los.tolist() == [1, 2, 4]
        assert hist.his.tolist() == [1, 3, 4]

    def test_append_grows_and_reset_keeps_capacity(self):
        hist = ColumnarHistory()
        for i in range(50):
            hist.append(make_entry(READ_WRITE, [i], i))
        assert len(hist) == 50
        assert hist.los.tolist() == list(range(50))
        assert hist.kinds.tolist() == [hist_mod.KIND_WRITE] * 50
        hist.reset([make_entry(READ, [3], 99)])
        assert len(hist) == 1
        assert hist.los.tolist() == [3]
        assert hist.kinds.tolist() == [hist_mod.KIND_READ]

    def test_pickle_roundtrip_rebuilds_columns(self):
        import pickle

        entries = [make_entry(reduce("sum"), [1, 2], 0),
                   make_entry(READ, [3], 1)]
        hist = ColumnarHistory(entries)
        clone = pickle.loads(pickle.dumps(hist))
        assert isinstance(clone, ColumnarHistory)
        assert len(clone) == 2
        assert clone.kinds.tolist() == hist.kinds.tolist()
        # the rebuilt redop column must still match the live operator
        mask = interference_mask(reduce("sum"), clone.kinds, clone.redops)
        assert mask.tolist() == [False, True]

    def test_interference_mask_matches_scalar(self):
        hist = ColumnarHistory([make_entry(READ, [1], 0),
                                make_entry(READ_WRITE, [1], 1),
                                make_entry(reduce("sum"), [1], 2),
                                make_entry(reduce("max"), [1], 3)])
        for privilege in PRIVILEGES:
            mask = interference_mask(privilege, hist.kinds, hist.redops)
            expected = [privilege.interferes(e.privilege) for e in hist]
            assert mask.tolist() == expected, privilege


def _spy_kernel(monkeypatch):
    calls = []
    real = hist_mod.batch_overlaps

    def spy(query, candidates, **kw):
        calls.append(len(candidates))
        return real(query, candidates, **kw)

    monkeypatch.setattr(hist_mod, "batch_overlaps", spy)
    return calls


# ----------------------------------------------------------------------
# regression: pre-collected deps never reach the kernel
# ----------------------------------------------------------------------
class TestDepsAtStartMasking:
    @pytest.mark.parametrize("columnar", (True, False))
    def test_kernel_sees_only_untested_entries(self, monkeypatch, columnar):
        """Entries whose task is already a dependence at scan start are
        skipped by the loop, so precomputing their verdicts is pure
        waste — the kernel input must exclude them (pre-fix: all six
        interfering entries were batched)."""
        entries = [make_entry(READ_WRITE, [i, i + 1], i) for i in range(6)]
        history = ColumnarHistory(entries) if columnar else entries
        space = IndexSpace.from_indices([0, 1, 2, 3, 4, 5, 6])
        deps = {0, 1, 2, 3}
        kernel = _spy_kernel(monkeypatch)
        meter = CostMeter()
        scan_dependences(READ, space, history, deps, meter)
        assert kernel == [2], "pre-collected deps must be masked out"
        assert deps == {0, 1, 2, 3, 4, 5}
        # meter totals are those of the unmasked entry-at-a-time walk
        assert meter.snapshot() == {"entries_scanned": 6,
                                    "intersection_tests": 2}

    def test_collapsed_summaries_still_tested(self, monkeypatch):
        """A summary whose max id is already a dependence still carries
        other collapsed ids, so it must stay in the kernel input."""
        summary = make_entry(READ_WRITE, [1, 2], 5, frozenset({3, 4, 5}))
        other = make_entry(READ_WRITE, [2, 3], 7)
        third = make_entry(READ_WRITE, [3, 4], 8)
        space = IndexSpace.from_indices([1, 2, 3, 4])
        deps = {5}
        kernel = _spy_kernel(monkeypatch)
        scan_dependences(READ, space,
                         ColumnarHistory([summary, other, third]), deps,
                         CostMeter())
        assert kernel == [3]
        assert deps == {3, 4, 5, 7, 8}


# ----------------------------------------------------------------------
# eqset-side columns
# ----------------------------------------------------------------------
class TestEqsetColumns:
    def test_equivalence_set_history_is_columnar(self):
        from repro.visibility.eqset import EquivalenceSet

        s = EquivalenceSet(IndexSpace.from_indices([0, 1, 2]))
        assert isinstance(s.history, PrivilegeColumns)
        s.record(READ_WRITE, np.zeros(3), 1)
        s.record(reduce("sum"), np.ones(3), 2)
        assert s.history.kinds.tolist() == [hist_mod.KIND_WRITE,
                                            hist_mod.KIND_REDUCE]
        inside, outside = s.split(IndexSpace.from_indices([0]))
        assert outside is not None
        assert [e.task_id for e in inside.history] == [1, 2]
        assert outside.history.kinds.tolist() == s.history.kinds.tolist()

    def test_loose_set_history_is_columnar(self):
        from repro.visibility.eqset import LooseEquivalenceSet

        space = IndexSpace.from_indices([0, 1, 2, 3])
        s = LooseEquivalenceSet(space)
        assert isinstance(s.history, ColumnarHistory)
        s.record(make_entry(READ_WRITE, [0, 1, 2, 3], 1))
        s.record(make_entry(reduce("sum"), [1, 2], 2))
        assert s.history.los.tolist() == [0, 1]
        remainder = s.minus(IndexSpace.from_indices([0, 1]))
        assert remainder is not None
        assert isinstance(remainder.history, ColumnarHistory)
        assert remainder.history.los.tolist() == [2, 2]
