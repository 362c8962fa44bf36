"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro import (READ, READ_WRITE, Extent, IndexSpace, RegionRequirement,
                   RegionTree, TaskStream, reduce)
from repro.privileges import Privilege
from repro.visibility.history import HistoryEntry, RegionValues

# ----------------------------------------------------------------------
# shared hypothesis profile
# ----------------------------------------------------------------------
# One place pins the suite-wide policy instead of per-file settings:
# derandomized runs (CI must be reproducible — a flaking random example
# would poison the determinism guarantees this suite exists to check) and
# no deadline (wall-clock per example varies wildly across the CI matrix
# and under coverage).  Per-test @settings(...) still override counts;
# unspecified fields inherit from this profile.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# deterministic RNG
# ----------------------------------------------------------------------
@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


# ----------------------------------------------------------------------
# the Figure 1 running example: 12 nodes, primary + ghost partitions
# ----------------------------------------------------------------------
def make_fig1_tree() -> tuple[RegionTree, object, object]:
    """The paper's running example: region N with fields up/down, a
    disjoint+complete primary partition P and an aliased, incomplete ghost
    partition G."""
    tree = RegionTree(Extent((12,)), {"up": np.int64, "down": np.int64},
                      name="N")
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(i * 4, (i + 1) * 4) for i in range(3)],
        disjoint=True, complete=True)
    G = tree.root.create_partition(
        "G", [IndexSpace.from_indices([3, 4]),
              IndexSpace.from_indices([0, 7, 8]),
              IndexSpace.from_indices([0, 4, 11])])
    return tree, P, G


@pytest.fixture
def fig1():
    return make_fig1_tree()


def bump_pieces() -> tuple[RegionTree, object, TaskStream]:
    """A 12-element float field in three disjoint pieces, and a stream
    that bumps each piece by one (task ``w[i]`` at point ``i``)."""
    tree = RegionTree(12, {"x": np.float64})
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(i * 4, (i + 1) * 4) for i in range(3)],
        disjoint=True, complete=True)
    stream = TaskStream()
    for i in range(3):
        stream.append(f"w[{i}]", [RegionRequirement(P[i], "x", READ_WRITE)],
                      _bump, point=i)
    return tree, P, stream


def _bump(arr):
    arr += 1.0


def fig1_stream(tree, P, G, iterations: int = 2) -> TaskStream:
    """The task stream of Figure 5 (t1/t2 phases over P and G)."""
    stream = TaskStream()

    def t1_body(pup, gdown):
        pup += 1
        gdown += 2

    def t2_body(pdown, gup):
        pdown *= 2
        gup += 3

    for _ in range(iterations):
        for i in range(3):
            stream.append(f"t1[{i}]",
                          [RegionRequirement(P[i], "up", READ_WRITE),
                           RegionRequirement(G[i], "down", reduce("sum"))],
                          t1_body, point=i)
        for i in range(3):
            stream.append(f"t2[{i}]",
                          [RegionRequirement(P[i], "down", READ_WRITE),
                           RegionRequirement(G[i], "up", reduce("sum"))],
                          t2_body, point=i)
    return stream


def fig1_initial(tree) -> dict[str, np.ndarray]:
    n = tree.root.space.size
    return {"up": np.arange(n, dtype=np.int64),
            "down": np.zeros(n, dtype=np.int64)}


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
def record_over(eqset, privilege, values, task_id: int) -> None:
    """Record an entry over the whole set, as Warnock does."""
    eqset.record(HistoryEntry(privilege, eqset.space, None if values is None
                              else RegionValues(eqset.space, values), task_id))


def index_spaces(max_index: int = 64, min_size: int = 0,
                 max_size: int = 24) -> st.SearchStrategy[IndexSpace]:
    """Arbitrary sparse index spaces over [0, max_index)."""
    return st.lists(st.integers(0, max_index - 1),
                    min_size=min_size, max_size=max_size).map(
        IndexSpace.from_indices)


def nonempty_index_spaces(max_index: int = 64,
                          max_size: int = 24) -> st.SearchStrategy[IndexSpace]:
    return index_spaces(max_index, min_size=1, max_size=max_size)


def subsets_of(space: IndexSpace) -> st.SearchStrategy[IndexSpace]:
    """Non-empty random subsets of an index space."""
    return st.lists(st.sampled_from(space.indices.tolist()), min_size=1,
                    max_size=space.size).map(IndexSpace.from_indices)


@st.composite
def random_trees(draw, max_root: int = 32, fields: int = 1):
    """A region tree over [0, n) with 1–3 partitions (one possibly
    nested), covering the disjoint/aliased × complete/incomplete square."""
    n = draw(st.integers(6, max_root))
    field_space = {f"f{k}": np.int64 for k in range(fields)} \
        if fields > 1 else {"x": np.int64}
    tree = RegionTree(Extent((n,)), field_space)
    root_space = tree.root.space

    # always create one disjoint+complete partition (block split)
    pieces = draw(st.integers(2, min(5, n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1),
                               min_size=pieces - 1, max_size=pieces - 1)))
    bounds = [0, *cuts, n]
    primary = tree.root.create_partition(
        "P", [IndexSpace.from_range(a, b) for a, b in zip(bounds, bounds[1:])],
        disjoint=True, complete=True)

    # optionally an aliased partition of random subsets
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        subs = [draw(nonempty_index_spaces(n, max_size=max(2, n // 2)))
                for _ in range(k)]
        tree.root.create_partition("G", subs)

    # optionally partition one primary subregion further
    if draw(st.booleans()):
        target = primary[draw(st.integers(0, len(primary) - 1))]
        if target.space.size >= 2:
            half = target.space.size // 2
            left = IndexSpace(target.space.indices[:half], trusted=True)
            right = IndexSpace(target.space.indices[half:], trusted=True)
            target.create_partition("Q", [left, right],
                                    disjoint=True, complete=True)
    return tree


def _privileges() -> st.SearchStrategy[Privilege]:
    return st.sampled_from(
        [READ, READ_WRITE, reduce("sum"), reduce("max"), reduce("min")])


def _make_body(privilege: Privilege, seed: int):
    """A deterministic, privilege-appropriate task body."""
    if privilege.is_read:
        return None
    if privilege.is_write:
        def write_body(arr, *rest):
            arr[:] = arr * 2 + seed
        return write_body
    opname = privilege.redop.name

    def reduce_body(arr, *rest):
        if opname == "sum":
            arr += seed + 1
        elif opname == "max":
            np.maximum(arr, seed, out=arr)
        else:
            np.minimum(arr, -seed, out=arr)
    return reduce_body


@st.composite
def random_programs(draw):
    """A (tree, initial, stream) triple: a random tree plus a random
    sequence of single-requirement tasks over its regions."""
    tree = draw(random_trees())
    regions = list(tree.walk())
    n_tasks = draw(st.integers(1, 18))
    stream = TaskStream()
    for t in range(n_tasks):
        region = regions[draw(st.integers(0, len(regions) - 1))]
        privilege = draw(_privileges())
        body = _make_body(privilege, t)
        stream.append(f"task{t}",
                      [RegionRequirement(region, "x", privilege)], body)
    initial = {"x": np.arange(tree.root.space.size, dtype=np.int64)}
    return tree, initial, stream


def _make_multi_body(privileges, seed: int):
    """A body mutating each buffer per its requirement's privilege."""
    singles = [_make_body(p, seed) for p in privileges]

    def body(*buffers):
        for buf, single in zip(buffers, singles):
            if single is not None:
                single(buf)
    return body


@st.composite
def random_multifield_programs(draw):
    """Programs with two fields and multi-requirement tasks.

    Each task carries 1–3 requirements; combinations that would violate
    the section-4 intra-task aliasing restriction are filtered out, which
    leaves plenty of legal multi-requirement shapes: different fields with
    any privileges, same field with aliased reads or same-operator
    reductions, disjoint regions with anything.
    """
    from repro.runtime.task import validate_requirements
    from repro.errors import TaskError

    tree = draw(random_trees(fields=2))
    regions = list(tree.walk())
    fields = tree.field_space.names
    n_tasks = draw(st.integers(1, 14))
    stream = TaskStream()
    for t in range(n_tasks):
        n_reqs = draw(st.integers(1, 3))
        reqs = []
        for _ in range(n_reqs):
            region = regions[draw(st.integers(0, len(regions) - 1))]
            field = fields[draw(st.integers(0, len(fields) - 1))]
            privilege = draw(_privileges())
            candidate = reqs + [RegionRequirement(region, field, privilege)]
            try:
                validate_requirements(candidate, "probe")
            except TaskError:
                continue  # would alias illegally — drop this requirement
            reqs = candidate
        if not reqs:
            continue
        body = _make_multi_body([r.privilege for r in reqs], t)
        stream.append(f"task{t}", reqs, body)
    initial = {f: np.arange(tree.root.space.size, dtype=np.int64) * (k + 1)
               for k, f in enumerate(fields)}
    return tree, initial, stream
