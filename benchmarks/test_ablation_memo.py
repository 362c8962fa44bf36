"""Ablation: the section 6.1 memoization of constituent equivalence sets.

"After performing this initial traversal, we can memoize the equivalence
sets that compose R" — without it, every repeat query pays a fresh BVH
search, charged as a balanced BVH over the L live sets would cost it:
⌈log₂ L⌉ + 1 nodes per set met.  This ablation measures BVH nodes visited
per steady iteration with and without memoization, at growing machine
sizes: the searches grow with the sets, the memoized lookups do not.
"""

import os
from collections import Counter

import pytest

from repro import Runtime
from repro.apps import CircuitApp
from repro.visibility import ALGORITHMS, warnock
from repro.visibility.eqset import RefinementStore
from repro.visibility.warnock import WarnockAlgorithm

from benchmarks.conftest import write_result


class _NoMemoWarnock(WarnockAlgorithm):
    name = "warnock_nomemo"
    memoize = False


ALGORITHMS.setdefault("warnock_nomemo", _NoMemoWarnock)


def bvh_visits_per_iteration(algorithm: str, pieces: int) -> float:
    app = CircuitApp(pieces=pieces, nodes_per_piece=16, wires_per_piece=24)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm)
    rt.replay(app.init_stream())
    rt.replay(app.iteration_stream())  # structures settle
    before = Counter(rt.meter.counters)
    rt.replay(app.iteration_stream())
    delta = Counter(rt.meter.counters)
    delta.subtract(before)
    return delta["bvh_nodes_visited"]


def sweep() -> list[tuple]:
    """``(pieces, memo, no-memo)`` BVH nodes per steady iteration at each
    scale up to ``REPRO_BENCH_MAX_NODES`` (128 at most)."""
    max_nodes = min(128, int(os.environ.get("REPRO_BENCH_MAX_NODES", "512")))
    return [(pieces,
             bvh_visits_per_iteration("warnock", pieces),
             bvh_visits_per_iteration("warnock_nomemo", pieces))
            for pieces in (4, 16, 64, 128) if pieces <= max_nodes]


def check_claim(rows) -> None:
    """Section 6.1's claim, at every scale swept: memoization never costs
    more, its saving rises strictly with the machine, and the memoized
    lookups per piece stay within 1.5x of the smallest scale's."""
    for pieces, memo, nomemo in rows:
        assert memo <= nomemo, f"memoization increased descents at {pieces}"
    savings = [nomemo / memo for _, memo, nomemo in rows]
    assert all(a < b for a, b in zip(savings, savings[1:])), savings
    per_piece = [memo / pieces for pieces, memo, _ in rows]
    assert max(per_piece) <= 1.5 * per_piece[0], per_piece


def test_memoization_ablation(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["# ablation: BVH nodes visited per steady iteration",
             "pieces\twarnock_memo\twarnock_nomemo"]
    for pieces, memo, nomemo in rows:
        lines.append(f"{pieces}\t{memo:.0f}\t{nomemo:.0f}")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("ablation_memo.tsv", text)
    check_claim(rows)


class _FreshSearchStore(RefinementStore):
    """Mutant: a memo hit is charged as a fresh search, ⌈log₂ L⌉ + 1
    nodes per set over the L live sets."""

    def locate(self, space, region_uid=None):
        sets = super().locate(space, region_uid)
        memo = self._memo.get(region_uid)
        if memo is not None:
            nodes = (len(self._sets) - 1).bit_length() + 1
            memo.cost = {"bvh_nodes_visited": nodes * len(sets),
                         "intersection_tests": len(sets)}
        return sets


def test_claim_fails_when_a_memo_hit_costs_a_search(monkeypatch):
    """The claim tells a working memo from a broken one: charged as
    searches, memo hits grow with log L and fail the per-piece bound."""
    monkeypatch.setattr(warnock, "RefinementStore", _FreshSearchStore)
    with pytest.raises(AssertionError):
        check_claim(sweep())
