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

from repro import Runtime
from repro.apps import CircuitApp
from repro.visibility import ALGORITHMS
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


def test_memoization_ablation(benchmark):
    max_nodes = min(128, int(os.environ.get("REPRO_BENCH_MAX_NODES", "512")))
    scales = [n for n in (4, 16, 64, 128) if n <= max_nodes]

    def once():
        return [(pieces,
                 bvh_visits_per_iteration("warnock", pieces),
                 bvh_visits_per_iteration("warnock_nomemo", pieces))
                for pieces in scales]

    rows = benchmark.pedantic(once, rounds=1, iterations=1)
    lines = ["# ablation: BVH nodes visited per steady iteration",
             "pieces\twarnock_memo\twarnock_nomemo"]
    for pieces, memo, nomemo in rows:
        lines.append(f"{pieces}\t{memo:.0f}\t{nomemo:.0f}")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("ablation_memo.tsv", text)

    for pieces, memo, nomemo in rows:
        assert memo <= nomemo, f"memoization increased descents at {pieces}"
    # without memoization descents grow with the machine much faster
    first, last = rows[0], rows[-1]
    memo_growth = last[1] / max(1.0, first[1])
    nomemo_growth = last[2] / max(1.0, first[2])
    assert nomemo_growth > 2 * memo_growth
