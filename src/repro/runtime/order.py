"""Order maintenance: O(1) precedence queries over the dependence DAG.

The soundness checks repeatedly ask "does task A already precede task
B?" — and before this module every such query was a BFS over the
dependence graph (``DependenceGraph.ancestors_of``), which makes them
quadratic-ish on long task streams.
DePa [Westrick, Wang & Acar, *DePa: Simple, Provably Efficient, and
Practical Order Maintenance for Task Parallelism*, PAPERS.md] shows that
fork-join ordering can be maintained with compact per-task labels
answering precedence in O(1).  Our task DAGs are more general than
series-parallel (any earlier task can be a dependence), so the label here
is a DePa-flavoured hybrid:

* ``index`` — position in program order, which for this runtime *is* a
  topological order (every dependence points at a smaller id).  Gives the
  necessary condition ``a.index < b.index`` in one comparison.
* ``level`` — longest-path depth.  Every strict ancestor has a strictly
  smaller level, so ``a.level >= b.level`` rejects in one comparison.
* ``low`` — smallest ancestor index.  ``a.index < b.low`` rejects
  accesses that reach back before anything ``b`` can see.
* ``reach`` — a packed ancestor bitmap (an arbitrary-precision int, one
  bit per earlier task, machine-word parallel).  The exact answer is a
  single shift-and-mask; no graph traversal, ever.

The first three fields answer the common negative queries without
touching the bitmap; the bitmap makes the answer *exact* on arbitrary
DAGs (where interval-only labellings cannot be).  Maintenance is O(1)
amortized label work per dependence edge (one bitwise OR per edge —
word-parallel over the stream length); queries never walk the graph.

The one consumer is :class:`~repro.runtime.dependence.DependenceGraph`,
which maintains an :class:`OrderMaintainer` on ``add_task`` and answers
``contains_transitively`` / ``missing_pairs`` from labels instead of
repeated BFS (pure acceleration: ``ancestors_of`` stays the public BFS
reference the tests compare the labels against).
"""

from __future__ import annotations

from typing import Iterable, Optional


class OrderLabel:
    """Compact order label of one task (see module docstring).

    ``reach`` includes the task's own bit — the closure composes by
    plain bitwise OR: ``reach(t) = bit(t) | OR(reach(d) for d in deps)``.
    """

    __slots__ = ("index", "level", "low", "reach")

    def __init__(self, index: int, level: int, low: int, reach: int) -> None:
        self.index = index
        self.level = level
        self.low = low
        self.reach = reach

    def __repr__(self) -> str:
        return (f"OrderLabel(index={self.index}, level={self.level}, "
                f"low={self.low}, ancestors={bin(self.reach).count('1') - 1})")


class OrderMaintainer:
    """Assigns and stores one :class:`OrderLabel` per task.

    Labels are assigned online, in topological (= program) order, from
    the direct dependences each visibility algorithm reported — exactly
    the edges :meth:`DependenceGraph.add_task` records.  Plain ints and
    dicts throughout: instances pickle with the graphs that own them
    (process-backend checkpoints ship them inside runtimes).
    """

    def __init__(self) -> None:
        self._labels: dict[int, OrderLabel] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._labels

    def label(self, task_id: int) -> Optional[OrderLabel]:
        """The label of one task (None when never assigned)."""
        return self._labels.get(task_id)

    def assign(self, task_id: int, dependences: Iterable[int]) -> OrderLabel:
        """Label a new task from its direct dependences.

        All dependence ids must already be labelled (the runtime launches
        in program order, so they are).  One bitwise OR per edge — no
        traversal.
        """
        reach = 1 << task_id
        level = 0
        low = task_id
        for d in dependences:
            dl = self._labels[d]
            reach |= dl.reach
            if dl.level >= level:
                level = dl.level + 1
            if dl.low < low:
                low = dl.low
        label = OrderLabel(task_id, level, low, reach)
        self._labels[task_id] = label
        return label

    # ------------------------------------------------------------------
    def precedes(self, a: int, b: int) -> Optional[bool]:
        """Exact label answer to "does ``a`` strictly precede ``b``?"

        Returns ``None`` when ``b`` has no label (caller falls back to
        BFS); an unlabelled or out-of-universe ``a`` trivially does not
        precede anything, which the bitmap answers correctly.
        """
        lb = self._labels.get(b)
        if lb is None:
            return None
        if a < 0 or a >= b:
            return False
        la = self._labels.get(a)
        if la is not None and (la.level >= lb.level or la.index < lb.low):
            return False  # O(1) prefilters: no int shift needed
        return bool((lb.reach >> a) & 1)

    def ancestors(self, task_id: int) -> Optional[set[int]]:
        """The full ancestor set decoded from the bitmap (None when
        unlabelled).  Used by the tests that hold labels equal to BFS —
        the hot paths only ever test single bits."""
        label = self._labels.get(task_id)
        if label is None:
            return None
        mask = label.reach & ~(1 << task_id)
        out: set[int] = set()
        index = 0
        while mask:
            low_bits = mask & 0xFFFFFFFF
            if low_bits:
                for bit in range(32):
                    if (low_bits >> bit) & 1:
                        out.add(index + bit)
            mask >>= 32
            index += 32
        return out
