"""The visibility-based coherence algorithms: the paper's four and a fifth.

All share the two-call protocol of Figure 6 — ``materialize`` (produce
coherent values for a region argument and the dependences of the task
about to run) and ``commit`` (record the task's effects for future
materializations) — written once in
:class:`~repro.visibility.base.CoherenceAlgorithm`; each algorithm is the
store policy that driver runs over:

* :class:`~repro.visibility.painter.PainterAlgorithm` — the naive global
  history of Figure 7.
* :class:`~repro.visibility.painter_tree.TreePainterAlgorithm` — the
  optimized painter of section 5.1: per-region subhistories in the region
  tree plus immutable *composite views*.
* :class:`~repro.visibility.warnock.WarnockAlgorithm` — equivalence sets
  with monotone refinement (Figure 9) over an owner column, section
  6.1's BVH search charged rather than walked, and memoization.
* :class:`~repro.visibility.raycast.RayCastAlgorithm` — Warnock plus
  dominating writes that coalesce occluded equivalence sets (Figure 11),
  bucketed over a disjoint-and-complete partition with a K-d tree
  fallback (section 7.1).
* :class:`~repro.visibility.zbuffer.ZBufferAlgorithm` — beyond the paper:
  a per-element z-buffer table, maximally precise and inherently
  centralized.

All algorithms are *per field*: the runtime owns one instance per field of
the region tree.  All are instrumented through
:class:`~repro.visibility.meter.CostMeter` so the distributed-machine
simulator can attribute their real operation counts to simulated nodes.
"""

from repro.visibility.base import AnalysisOutcome, CoherenceAlgorithm, make_algorithm
from repro.visibility.history import HistoryEntry, RegionValues
from repro.visibility.meter import CostMeter, TaskCost
from repro.visibility.painter import PainterAlgorithm
from repro.visibility.painter_tree import TreePainterAlgorithm
from repro.visibility.warnock import WarnockAlgorithm
from repro.visibility.raycast import RayCastAlgorithm
from repro.visibility.zbuffer import ZBufferAlgorithm

ALGORITHMS = {
    "painter": PainterAlgorithm,
    "tree_painter": TreePainterAlgorithm,
    "warnock": WarnockAlgorithm,
    "raycast": RayCastAlgorithm,
    # beyond the paper: the fourth classic visibility algorithm, included
    # to demonstrate the reduction's generality (see its module docstring)
    "zbuffer": ZBufferAlgorithm,
}

__all__ = [
    "ALGORITHMS",
    "AnalysisOutcome",
    "CoherenceAlgorithm",
    "CostMeter",
    "HistoryEntry",
    "PainterAlgorithm",
    "RayCastAlgorithm",
    "RegionValues",
    "TaskCost",
    "TreePainterAlgorithm",
    "WarnockAlgorithm",
    "ZBufferAlgorithm",
    "make_algorithm",
]
