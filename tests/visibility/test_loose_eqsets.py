"""Unit tests for ray casting's equivalence sets (entries narrower than
their set) and bucket store."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (READ, READ_WRITE, CoherenceError, IndexSpace,
                   RegionRequirement, RegionTree, Runtime, reduce)
from repro.apps import APPS
from repro.distributed.verify import analysis_fingerprint
from repro.geometry.fastpath import batch_overlaps
from repro.visibility.base import INITIAL_TASK_ID
from repro.visibility.eqset import BucketStore, EquivalenceSet, visit_sets
from repro.visibility.history import HistoryEntry, RegionValues, paint_into
from repro.visibility.meter import CostMeter

from tests.conftest import nonempty_index_spaces, subsets_of


def entry(privilege, indices, values, task_id):
    space = IndexSpace.from_indices(indices)
    rv = None if values is None else RegionValues(
        space, np.asarray(values, dtype=np.float64))
    return HistoryEntry(privilege, space, rv, task_id)


class TestLooseEquivalenceSet:
    """Ray casting's use of a set: entries narrower than the set."""

    def make(self, lo=0, hi=8):
        s = EquivalenceSet(IndexSpace.from_range(lo, hi))
        s.record(entry(READ_WRITE, range(lo, hi), np.arange(lo, hi), -1))
        return s

    def test_empty_space_rejected(self):
        with pytest.raises(CoherenceError):
            EquivalenceSet(IndexSpace.empty())

    def test_record_guards(self):
        s = self.make()
        with pytest.raises(CoherenceError):   # escapes the set
            s.record(entry(READ, [9], None, 1))
        with pytest.raises(CoherenceError):   # partial write
            s.record(entry(READ_WRITE, [1, 2], [0, 0], 1))

    def test_write_occludes_history(self):
        s = self.make()
        s.record(entry(reduce("sum"), [1, 2], [5, 5], 1))
        s.record(entry(READ, [0, 1], None, 2))
        assert len(s.history) == 3
        s.record(entry(READ_WRITE, range(8), np.zeros(8), 3))
        assert len(s.history) == 1
        assert s.history[0].task_id == 3

    def test_paint_blends_subdomain_entries(self):
        s = self.make()
        s.record(entry(reduce("sum"), [2, 3], [10, 10], 1))
        assert list(s.paint(np.float64)) == [0, 1, 12, 13, 4, 5, 6, 7]

    def test_paint_restricted_window(self):
        s = self.make()
        window = s.space & IndexSpace.from_indices([3, 5, 99])
        painted = np.zeros(window.size)
        paint_into(painted, window, window, s.history)
        assert list(window) == [3, 5] and list(painted) == [3, 5]

    # the remainder of a set outside a dominating write: one piece
    def test_minus_restricts_entries(self):
        s = self.make()
        s.record(entry(reduce("sum"), [1, 6], [10, 20], 1))
        [rest] = s.pieces([s.space.indices >= 4])
        assert list(rest.space) == [4, 5, 6, 7]
        # the reduction entry survives only at index 6; the covering
        # write covers the piece on the piece's own space
        red = [e for e in rest.history if e.privilege.is_reduce]
        assert len(red) == 1 and list(red[0].domain) == [6]
        assert rest.history[0].domain is rest.space

    def test_minus_contained_is_none(self):
        s = self.make()
        [whole] = s.pieces([np.ones(s.space.size, dtype=bool)])
        assert whole.space == s.space
        assert whole.history[0].domain is whole.space
        with pytest.raises(CoherenceError):  # no elements left: no set
            s.pieces([np.zeros(s.space.size, dtype=bool)])

    def test_minus_drops_disjoint_entries(self):
        s = self.make()
        s.record(entry(READ, [0], None, 1))
        [rest] = s.pieces([s.space.indices >= 1])
        assert all(not e.privilege.is_read for e in rest.history)


class TestPieces:
    @given(st.data())
    @settings(max_examples=60)
    def test_pieces_are_the_elementwise_cut(self, data):
        """Over a sparse root, a history of a covering write, partial reads
        and reductions and a covering summary, cut by random masks and a
        complementary pair: each piece holds every entry ∩ piece with its
        values per element, emptied entries dropped, order kept, covering
        entries on the piece's own space; split charges as before."""
        space = data.draw(nonempty_index_spaces(200, max_size=40))
        n, summary = space.size, frozenset({7, 8})
        history = [HistoryEntry(READ_WRITE, space, RegionValues(
            space, np.arange(n, dtype=np.float64)), 0)]
        for task_id, sub in enumerate(data.draw(st.lists(
                subsets_of(space), max_size=4)), 1):
            values = None if task_id % 2 else RegionValues(
                sub, sub.indices * 1.5)
            history.append(HistoryEntry(READ if values is None else
                                        reduce("sum"), sub, values, task_id))
        history.append(HistoryEntry(READ_WRITE, space, RegionValues(
            space, -np.arange(n, dtype=np.float64)), 9, summary))
        s = EquivalenceSet(space, history)
        flags = st.lists(st.booleans(), min_size=n, max_size=n).map(
            np.array).filter(np.any)
        masks = data.draw(st.lists(flags, max_size=3))
        if n > 1:
            half = data.draw(flags.filter(lambda m: not m.all()))
            masks += [half, ~half]
        for mask, piece in zip(masks, s.pieces(masks)):
            assert list(piece.space) == space.indices[mask].tolist()
            spec = [(e, [i for i in e.domain if i in piece.space])
                    for e in history]
            spec = [(e, kept) for e, kept in spec if kept]
            assert [(e.privilege, e.task_id, e.collapsed_ids, list(e.domain))
                    for e in piece.history] == [
                (e.privilege, e.task_id, e.collapsed_ids, kept)
                for e, kept in spec]
            for got, (e, kept) in zip(piece.history, spec):
                if e.values is not None:
                    was = dict(zip(e.domain, e.values.values))
                    assert list(got.values.values) == [was[i] for i in kept]
                if e.domain.size == n:
                    assert got.domain is piece.space
        if n > 1:
            meter = CostMeter()
            inside, outside = s.split(space, meter, half)
            assert (list(inside.space), list(outside.space)) == (
                space.indices[half].tolist(), space.indices[~half].tolist())
            assert meter.snapshot() == {
                "eqsets_split": 1, "eqsets_created": 2,
                "elements_moved": n * len(history)}


def make_store(pieces=4, size=16):
    tree = RegionTree(size, {"x": np.float64})
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(i * size // pieces,
                                    (i + 1) * size // pieces)
              for i in range(pieces)], disjoint=True, complete=True)
    root = EquivalenceSet(tree.root.space)
    root.record(HistoryEntry(
        READ_WRITE, tree.root.space,
        RegionValues(tree.root.space, np.zeros(size)), INITIAL_TASK_ID))
    return tree, P, BucketStore(root, P)


class TestBucketStoreLocalization:
    def test_first_touch_carves_only_queried_buckets(self):
        tree, P, store = make_store()
        out = store.overlapping(P[1].space, P[1].uid)
        assert len(out) == 1
        assert out[0].space == P[1].space
        # the untouched remainder stays one multi-bucket set
        sizes = sorted(s.space.size for s in store.all_sets())
        assert sizes == [4, 12]

    def test_progressive_localization(self):
        tree, P, store = make_store()
        for i in range(4):
            store.overlapping(P[i].space, P[i].uid)
        assert store.num_sets() == 4
        store.check_invariants(tree.root.space)

    def test_root_query_localizes_everything(self):
        tree, P, store = make_store()
        out = store.overlapping(tree.root.space, tree.root.uid)
        assert len(out) == 4
        store.check_invariants(tree.root.space)

    def test_localization_preserves_values(self):
        tree, P, store = make_store()
        sets = store.overlapping(P[2].space, P[2].uid)
        assert list(sets[0].paint(np.float64)) == [0.0] * 4

    def test_memo_stable_when_sets_unchanged(self):
        tree, P, store = make_store()
        a = store.overlapping(P[0].space, P[0].uid)
        b = store.overlapping(P[0].space, P[0].uid)
        assert [s.uid for s in a] == [s.uid for s in b]

    def test_memo_invalidated_by_dominating_write(self):
        tree, P, store = make_store()
        first = store.overlapping(P[0].space, P[0].uid)
        fresh = store.dominate_write(P[0].space, first, P[0].uid)
        again = store.overlapping(P[0].space, P[0].uid)
        assert again == [fresh]
        store.check_invariants(tree.root.space)

    def test_dominating_write_trims_straddlers(self):
        tree, P, store = make_store()
        # write a region straddling two buckets
        straddle = IndexSpace.from_range(2, 6)
        sets = store.overlapping(straddle, None)
        fresh = store.dominate_write(straddle, sets, None)
        assert fresh.space == straddle
        store.check_invariants(tree.root.space)

    def test_single_bucket_sets_not_relocalized(self):
        """Sets whose bbox spans several buckets but whose contents live in
        one bucket must not churn (the 2-D tile case)."""
        tree = RegionTree(16, {"x": np.float64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_indices([0, 1, 8, 9]),
                  IndexSpace.from_indices([2, 3, 10, 11]),
                  IndexSpace.from_indices([4, 5, 12, 13]),
                  IndexSpace.from_indices([6, 7, 14, 15])],
            disjoint=True, complete=True)
        root = EquivalenceSet(tree.root.space)
        root.record(HistoryEntry(
            READ_WRITE, tree.root.space,
            RegionValues(tree.root.space, np.zeros(16)), INITIAL_TASK_ID))
        store = BucketStore(root, P)
        first = store.overlapping(P[0].space, P[0].uid)
        uids = {s.uid for s in store.all_sets()}
        store.overlapping(P[0].space, None)  # bypass memo: no churn allowed
        assert {s.uid for s in store.all_sets()} == uids


class TestBucketStoreEdges:
    def test_insert_outside_buckets_raises(self):
        """The partition is complete, so a set fitting no bucket can only
        mean a stale bucket list; the store must fail loudly."""
        tree, P, store = make_store()
        stray = EquivalenceSet(IndexSpace.from_range(100, 104))
        with pytest.raises(CoherenceError, match="fits no bucket"):
            store._index_insert(stray)

    def test_stale_bucket_list_detected(self):
        """Simulate rebucketing mid-flight: the bucket regions no longer
        cover a live set's space."""
        tree, P, store = make_store()
        store._set_bucket_regions([P[0]])  # stale: only the first bucket
        with pytest.raises(CoherenceError, match="fits no bucket"):
            store._index_insert(EquivalenceSet(P[2].space))

    def test_localize_remainder_keeps_restricted_history(self):
        """Carving one bucket out of a multi-bucket set must re-index the
        remainder's history to the remainder's domain."""
        tree, P, store = make_store()  # 4 buckets of 4 elements over 16
        root_set = store.all_sets()[0]
        dom = IndexSpace.from_indices([1, 14])  # rides buckets 0 and 3
        root_set.record(HistoryEntry(
            reduce("sum"), dom,
            RegionValues(dom, np.array([10.0, 20.0])), 5))
        out = store.overlapping(P[0].space, P[0].uid)  # carve bucket 0
        store.check_invariants(tree.root.space)
        # the carved piece kept only the index-1 part of the reduction
        carved_red = [e for e in out[0].history if e.privilege.is_reduce]
        assert len(carved_red) == 1
        assert list(carved_red[0].domain) == [1]
        # the remainder spans buckets 1..3 and kept the index-14 part
        rem = next(s for s in store.all_sets() if s.space.size == 12)
        assert list(rem.space) == list(range(4, 16))
        rem_red = [e for e in rem.history if e.privilege.is_reduce]
        assert len(rem_red) == 1
        assert list(rem_red[0].domain) == [14]
        assert list(rem.paint(np.float64)[-4:]) == [0.0, 0.0, 20.0, 0.0]

    def test_localize_carves_only_touched_buckets(self):
        """A query straddling two of four buckets carves exactly those two
        and leaves one remainder set for the rest."""
        tree, P, store = make_store()
        straddle = IndexSpace.from_range(2, 6)  # buckets 0 and 1
        out = store.overlapping(straddle, None)
        assert sorted(s.space.size for s in out) == [4, 4]
        sizes = sorted(s.space.size for s in store.all_sets())
        assert sizes == [4, 4, 8]
        store.check_invariants(tree.root.space)


class RederivingStore(BucketStore):
    """The spec of the span memo: the derivation it replaced, run afresh
    (bounds filter, then the exact test) on every localization and
    removal."""

    def _span_of(self, eqset):
        regions = [self._bucket_regions[i] for i in self._near(eqset.space)]
        hits = batch_overlaps(eqset.space, [r.space for r in regions])
        return [r for r, hit in zip(regions, hits) if hit]


class TestBucketSpanMemo:
    """What placing a set found is read back, not re-derived: same sets,
    same meter (fingerprints hash ``bvh_nodes_visited``)."""

    def tiled(self, cls):
        """4x4 grid, 2x2 tiles in row-major order: every tile's bounding
        interval meets two buckets' bounds, its elements one bucket."""
        tree = RegionTree(16, {"x": np.float64})
        tiles = [IndexSpace.from_indices([r * 4 + c, r * 4 + c + 1,
                                          r * 4 + c + 4, r * 4 + c + 5])
                 for r in (0, 2) for c in (0, 2)]
        P = tree.root.create_partition("P", tiles, disjoint=True,
                                       complete=True)
        halves = tree.root.create_partition(
            "H", [IndexSpace.from_range(0, 8), IndexSpace.from_range(8, 16)],
            disjoint=True, complete=True)
        root = EquivalenceSet(tree.root.space)
        root.record(HistoryEntry(
            READ_WRITE, tree.root.space,
            RegionValues(tree.root.space, np.zeros(16)), INITIAL_TASK_ID))
        return tree, P, halves, cls(root, P, CostMeter())

    def drive(self, cls):
        tree, P, halves, store = self.tiled(cls)
        trace = []

        def step(label):
            store.check_invariants(tree.root.space)
            trace.append((label, store.meter.snapshot(), sorted(
                (tuple(s.space), len(s.history))
                for s in store.all_sets())))

        store.overlapping(P[1].space, P[1].uid)       # carve one tile
        step("first touch")
        store.overlapping(P[1].space, None)           # single-bucket: no churn
        step("repeat")
        straddle = IndexSpace.from_range(5, 11)       # rides all four tiles
        sets = store.overlapping(straddle, None)
        step("straddling query")
        store.dominate_write(straddle, sets, None)    # trims four sets
        step("dominating write")
        store.overlapping(tree.root.space, tree.root.uid)
        step("root query")
        store.rebucket(halves)
        step("rebucket")
        store.overlapping(halves[0].space, halves[0].uid)
        step("localize to the new buckets")
        store.rebucket(None)                          # the K-d fallback
        assert store._span == {}
        store.overlapping(P[2].space, None)
        step("k-d fallback")
        store.rebucket(P)
        store.overlapping(P[3].space, P[3].uid)
        step("back to buckets")
        return trace

    def test_memo_equals_rederivation(self):
        assert self.drive(BucketStore) == self.drive(RederivingStore)

    def test_memo_follows_the_live_sets(self):
        tree, P, halves, store = self.tiled(BucketStore)
        assert set(store._span) == {s.uid for s in store.all_sets()}
        visited, placed = store._span[store.all_sets()[0].uid]
        assert visited == 4 and placed == list(P.subregions)
        tile = store.overlapping(P[0].space, P[0].uid)[0]
        # bounds meet tiles 0 and 1, elements only tile 0
        assert store._span[tile.uid] == (2, [P[0]])
        old = tile.uid  # a renewal keeps the object and re-keys it
        store.dominate_write(P[0].space, [tile], P[0].uid)
        assert old not in store._span
        assert set(store._span) == {s.uid for s in store.all_sets()}


class RewalkingStore(BucketStore):
    """The spec of the modelled walk: the walk.  What a memo learned is
    forgotten before every query, so a query whose memoized set was
    renewed goes back through the buckets, as every such query used to."""

    def overlapping(self, space, region_uid=None):
        memo = self._memo.get(region_uid)
        if memo is not None:
            memo.generation = -1
        return super().overlapping(space, region_uid)


class TestLocateStamp:
    """A region's sets are answered from its memo while the decomposition
    stands, and a write of a set's own region renews it in place: same
    sets *in the same order*, same meter, same touches as re-walking."""

    def build(self, cls):
        """Four pieces of four, their halves, a ghost of piece 1 reaching
        into both neighbours, and the two halves of piece 1 (aliased)."""
        tree = RegionTree(16, {"x": np.float64})

        def part(name, *ranges, **kw):
            return tree.root.create_partition(
                name, [IndexSpace.from_range(a, b) for a, b in ranges], **kw)

        P = part("P", (0, 4), (4, 8), (8, 12), (12, 16),
                 disjoint=True, complete=True)
        H = part("H", (0, 8), (8, 16), disjoint=True, complete=True)
        ghost = part("G", (3, 9))[0]
        S = part("S", (4, 6), (6, 8))
        root = EquivalenceSet(tree.root.space)
        root.record(HistoryEntry(
            READ_WRITE, tree.root.space,
            RegionValues(tree.root.space, np.zeros(16)), INITIAL_TASK_ID))
        return tree, P, H, ghost, S, cls(root, P, CostMeter())

    def drive(self, cls):
        tree, P, H, ghost, S, store = self.build(cls)
        trace = []

        def ask(label, region):
            """One named-region access, as the policies make it."""
            store.meter.begin_task()
            sets = visit_sets(store.overlapping, region, store.meter)
            touches = [(kind, lo) for kind, _, lo
                       in store.meter.end_task().touches]
            store.check_invariants(tree.root.space)
            trace.append((label, [(tuple(s.space), len(s.history))
                                  for s in sets],
                          store.meter.snapshot(), touches))
            return sets

        def write(label, region):
            fresh = store.dominate_write(
                region.space, ask(label, region), region.uid)
            assert store.overlapping(region.space, region.uid) == [fresh]
            return fresh

        ask("first touch", P[1])
        piece = ask("repeat", P[1])[0]
        uids = [piece.uid]
        for _ in range(2):                      # its own region: renewed
            assert write("own region", P[1]) is piece
            uids.append(piece.uid)
        assert len(set(uids)) == 3 and uids == sorted(uids)
        ask("ghost: first touch carves the neighbours", ghost)
        ask("ghost: repeat", ghost)
        write("own region again", P[1])
        ask("ghost: a member was renewed, nothing learned yet", ghost)
        write("own region again", P[1])
        ask("ghost: the learned walk, replayed", ghost)
        straddle = IndexSpace.from_range(6, 10)     # trims pieces 1 and 2
        store.dominate_write(straddle, store.overlapping(straddle), None)
        ask("ghost: after the straddling write", ghost)
        write("left half of piece 1", S[0])     # now last in its bucket
        ask("ghost: walks, and learns", ghost)
        write("right half of piece 1", S[1])    # the two swap places
        ask("ghost: replayed in the buckets' new order", ghost)
        store.rebucket(H)
        ask("ghost: after rebucket", ghost)
        write("own region, two sets", P[1])
        ask("half", H[0])
        store.rebucket(None)                    # the K-d fallback
        ask("ghost: k-d", ghost)
        write("k-d write", P[2])
        ask("ghost: k-d, after the write", ghost)
        store.rebucket(P)
        ask("ghost: back to buckets", ghost)
        write("own region", P[2])
        store = pickle.loads(pickle.dumps(store))
        assert store._columns is None           # a cache: rebuilt when asked
        ask("ghost: restored", ghost)
        write("own region, restored", P[2])
        ask("ghost: restored, repeat", ghost)
        return trace

    def test_stamped_answers_equal_rewalking(self):
        stamped, spec = self.drive(BucketStore), self.drive(RewalkingStore)
        for got, want in zip(stamped, spec):
            assert got == want
        assert len(stamped) == len(spec)

    def test_invariants_notice_a_wrong_memo(self):
        tree, P, H, ghost, S, store = self.build(BucketStore)
        piece = store.overlapping(P[1].space, P[1].uid)
        store.overlapping(ghost.space, ghost.uid)       # carves: unlearned
        store.dominate_write(P[1].space, piece, P[1].uid)
        store.overlapping(ghost.space, ghost.uid)       # walks, and learns
        memo = store._memo[ghost.uid]
        assert memo.generation == store._generation
        store.check_invariants(tree.root.space)
        memo.cost = dict(memo.cost, bvh_nodes_visited=1)
        with pytest.raises(CoherenceError, match="learned walk cost"):
            store.check_invariants(tree.root.space)
        memo.generation = -1
        memo.sets = memo.sets[:-1]
        with pytest.raises(CoherenceError, match="region memo diverged"):
            store.check_invariants(tree.root.space)

    def test_invariants_notice_a_wrong_column_or_intersection(self):
        """The set-owner column and the carried intersections are caches
        the checker re-derives: one flipped owner, or two intersections
        swapped, is a divergence."""
        tree, P, H, ghost, S, store = self.build(BucketStore)
        sets = store.overlapping(ghost.space, ghost.uid)
        memo = store._memo[ghost.uid]
        assert len(sets) == 3 and memo.commons[1] == P[1].space
        store.check_invariants(tree.root.space)
        at = tree.root.space.positions_of(sets[0].space)[0]
        store._owner[at] = sets[1].uid
        with pytest.raises(CoherenceError, match="set-owner column"):
            store.check_invariants(tree.root.space)
        store._owner[at] = sets[0].uid
        memo.commons[:2] = memo.commons[1::-1]
        with pytest.raises(CoherenceError, match="carried intersections"):
            store.check_invariants(tree.root.space)

    def test_renewal_moves_no_boundary(self):
        tree, P, H, ghost, S, store = self.build(BucketStore)
        piece = store.overlapping(P[1].space, P[1].uid)[0]
        store.overlapping(ghost.space, ghost.uid)
        generation, span = store._generation, store._span[piece.uid]
        before = store.meter.snapshot()
        assert store.dominate_write(P[1].space, [piece], P[1].uid) is piece
        assert store._generation == generation
        assert store._span[piece.uid] == span
        assert list(store._sets)[-1] == piece.uid and not piece.history
        charged = {k: v - before.get(k, 0)
                   for k, v in store.meter.snapshot().items()
                   if v != before.get(k, 0)}
        assert charged == {"bvh_nodes_visited": 2 * span[0],
                           "eqsets_coalesced": 1, "eqsets_created": 1}
        # a straddling write takes the long way and moves the generation
        straddle = IndexSpace.from_range(6, 10)
        store.dominate_write(straddle, store.overlapping(straddle), None)
        assert store._generation > generation


# ----------------------------------------------------------------------
# the owner column: the walk finds candidates, the column tests them
# ----------------------------------------------------------------------
def checkpoint_round_trip(algorithm, parent_bytes, monkeypatch):
    """Columns are caches: a checkpointed ``Runtime`` (stencil, 16 pieces,
    init + 4 iterations) pickles no owner column, bucket bounds or leaf
    positions — so it is no larger than at the parent commit
    (``parent_bytes``, measured there from a fresh uid source) — and a
    restored runtime rebuilds them on first use: continuing on the clone
    reaches the fingerprint of the run that never paused."""
    from repro.visibility import eqset
    monkeypatch.setattr(eqset, "_eqset_uid", type(eqset._eqset_uid)())
    app = APPS["stencil"](pieces=16)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm)

    def run(runtime, stream, regions=None):
        for task in stream:  # bodies are closures: analysis only
            reqs = task.requirements if regions is None else [
                type(req)(regions[req.region.uid], req.field, req.privilege)
                for req in task.requirements]
            runtime.launch(task.name, reqs, None, task.point)

    run(rt, app.init_stream())
    for _ in range(4):
        run(rt, app.iteration_stream())
    blob = pickle.dumps(rt)
    assert len(blob) <= parent_bytes
    clone = pickle.loads(blob)
    for field in clone.tree.field_space.names:
        store = clone.algorithm_for(field).store
        assert getattr(store, "_columns", None) is None
        assert getattr(store, "_owner", None) is None
    regions = {r.uid: r for r in clone.tree.regions}
    for _ in range(2):
        run(rt, app.iteration_stream())
        run(clone, app.iteration_stream(), regions)
    total = rt.next_task_id
    assert analysis_fingerprint(clone, 0, total) \
        == analysis_fingerprint(rt, 0, total)
    for field in clone.tree.field_space.names:
        clone.algorithm_for(field).check_invariants()


class TestOwnerColumn:
    @settings(max_examples=60)
    @given(st.data())
    def test_overlapping_equals_brute_force(self, data):
        """Over sparse roots (positions are not indices), interleaved
        disjoint-complete partitions, partial-domain read/reduce entries
        and random query / dominating-write sequences with a checkpoint
        thrown in: the owner column ≡ the partition and every memo ≡ the
        live sets after every step, the answer is the live sets
        overlapping the query, and every value stays with its element."""
        root_space = data.draw(nonempty_index_spaces(200, max_size=40))
        n = root_space.size
        tree = RegionTree(root_space, {"x": np.float64})
        colours = np.asarray(data.draw(st.lists(
            st.integers(0, 4), min_size=n, max_size=n)))
        P = tree.root.create_partition(
            "P", [IndexSpace(root_space.indices[colours == c], trusted=True)
                  for c in np.unique(colours)], disjoint=True, complete=True)
        expected = dict.fromkeys(root_space.indices.tolist(), 0.0)
        root = EquivalenceSet(root_space)
        root.record(HistoryEntry(READ_WRITE, root_space, RegionValues(
            root_space, np.zeros(n)), INITIAL_TASK_ID))
        regions = data.draw(st.lists(subsets_of(root_space), min_size=1,
                                     max_size=4)) + [P[0].space]
        for task_id, space in enumerate(regions[:2], 100):
            # partial entries on the set every first touch carves
            root.record(HistoryEntry(READ, space, None, task_id))
            root.record(HistoryEntry(reduce("sum"), space, RegionValues(
                space, np.ones(space.size)), task_id))
            for i in space.indices.tolist():
                expected[i] += 1.0
        store = BucketStore(root, P, CostMeter())
        for task_id in range(data.draw(st.integers(1, 8))):
            uid = data.draw(st.integers(0, len(regions) - 1))
            space = regions[uid]
            uid = uid if data.draw(st.booleans()) else None
            action = data.draw(st.sampled_from(
                ["read", "reduce", "write", "checkpoint"]))
            if action == "checkpoint":
                store = pickle.loads(pickle.dumps(store))
                assert store._columns is None
            sets = store.overlapping(space, uid)
            store.check_invariants(root_space)
            brute = [s for s in store.all_sets() if s.space.overlaps(space)]
            assert sorted(tuple(s.space) for s in sets) \
                == sorted(tuple(s.space) for s in brute)
            if action == "write":
                fresh = store.dominate_write(space, sets, uid)
                fresh.record(HistoryEntry(READ_WRITE, space, RegionValues(
                    space, np.full(space.size, 7.0)), task_id))
                expected.update(dict.fromkeys(space.indices.tolist(), 7.0))
                assert IndexSpace.union_all(  # carved per bucket, or whole
                    [s.space for s in store.overlapping(space, uid)]) == space
            for s in sets if action in ("read", "reduce") else ():
                common = s.space & space
                values = None if action == "read" else RegionValues(
                    common, np.ones(common.size))
                s.record(HistoryEntry(
                    READ if action == "read" else reduce("sum"), common,
                    values, task_id))
                for i in common.indices.tolist() if values else ():
                    expected[i] += 1.0
            store.check_invariants(root_space)
            for s in store.all_sets():
                assert list(s.paint(np.float64)) \
                    == [expected[i] for i in s.space]

    def test_checkpoint_carries_no_column(self, monkeypatch):
        """83 880 bytes at the parent commit (`fb3ee98`)."""
        checkpoint_round_trip("raycast", 83_880, monkeypatch)


class TestEveryGuardTrips:
    """Each guard of the sets and their stores, tripped through a public
    path: ``EquivalenceSet.record`` for an entry from outside, ``rebucket``
    for a set no bucket takes, ``check_invariants`` for a store whose
    caches or entries went wrong (the stores append their own entries
    unchecked, so the check re-proves them)."""

    def test_record_proves_the_entry(self):
        s = TestLooseEquivalenceSet().make()
        space = IndexSpace.from_indices([1, 2])
        with pytest.raises(CoherenceError, match="must not carry values"):
            s.record(HistoryEntry(READ, space, RegionValues(
                space, np.zeros(2)), 1))
        with pytest.raises(CoherenceError, match="live on the entry domain"):
            s.record(HistoryEntry(reduce("sum"), space, RegionValues(
                IndexSpace.from_indices([1]), np.zeros(1)), 1))
        with pytest.raises(CoherenceError, match="escapes"):
            s.record(entry(READ, [9], None, 1))
        with pytest.raises(CoherenceError, match="must cover"):
            s.record(entry(READ_WRITE, [1, 2], [0, 0], 1))

    def test_rebucket_onto_a_partial_partition(self):
        tree, P, store = make_store()
        half = tree.root.create_partition(
            "half", [IndexSpace.from_range(0, 8)])
        with pytest.raises(CoherenceError, match="fits no bucket"):
            store.rebucket(half)

    @staticmethod
    def algorithm():
        tree = RegionTree(16, {"x": np.float64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(4 * i, 4 * i + 4) for i in range(4)],
            disjoint=True, complete=True)
        rt = Runtime(tree, {"x": np.zeros(16)}, algorithm="raycast")
        for i in range(4):
            rt.launch("w", [RegionRequirement(P[i], "x", READ_WRITE)])
            rt.launch("r", [RegionRequirement(P[i], "x", READ)])
        algorithm = rt.algorithm_for("x")
        algorithm.check_invariants()
        return algorithm, algorithm.store, tree.root.space

    @pytest.mark.parametrize("bad, match", [
        ("read carries values", "must not carry values"),
        ("values off the domain", "live on the entry domain"),
        ("entry escapes", "entry escapes"),
        ("narrow write", "write entry narrower"),
    ])
    def test_invariants_reprove_appended_entries(self, bad, match):
        algorithm, store, _ = self.algorithm()
        s = store.all_sets()[0]
        inside = IndexSpace.from_indices([s.space.indices[0]])
        outside = IndexSpace.from_indices([99])
        s._append({
            "read carries values": HistoryEntry(
                READ, inside, RegionValues(inside, np.zeros(1)), 7),
            "values off the domain": HistoryEntry(
                reduce("sum"), inside, RegionValues(outside, np.zeros(1)), 7),
            "entry escapes": HistoryEntry(READ, outside, None, 7),
            "narrow write": HistoryEntry(
                READ_WRITE, inside, RegionValues(inside, np.zeros(1)), 7),
        }[bad])
        with pytest.raises(CoherenceError, match=match):
            algorithm.check_invariants()

    def test_invariants_notice_a_wrong_cache(self):
        algorithm, store, root = self.algorithm()
        uid = next(iter(store._span))
        visited, placed = store._span[uid]
        store._span[uid] = (visited + 1, placed)
        with pytest.raises(CoherenceError, match="bucket-span memo"):
            store.check_invariants(root)
        store._span[uid] = (visited, placed)
        store._fill_columns()[2][0] += 1
        with pytest.raises(CoherenceError, match="owner column diverged"):
            store.check_invariants(root)

    def test_invariants_notice_a_wrong_decomposition(self):
        algorithm, store, root = self.algorithm()
        first = store.all_sets()[0]
        del store._sets[first.uid]
        with pytest.raises(CoherenceError, match="do not cover the root"):
            store.check_invariants(root)
        twin = EquivalenceSet(first.space)
        store._sets[first.uid] = first
        store._sets[twin.uid] = twin
        with pytest.raises(CoherenceError, match="sets overlap"):
            store.check_invariants(root)
