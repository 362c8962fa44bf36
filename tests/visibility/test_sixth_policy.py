"""The extension contract as an executable example (docs/extending.md).

``ListPolicy`` is a complete sixth coherence algorithm in under forty
lines: a plain Python list of :class:`HistoryEntry`, the painter's own
history shape, and no spatial index.  It supplies the store-policy hooks and nothing else — no
``materialize``/``commit`` override — so the tree check, provenance,
tracing spans, lazy reductions and traced replay all come from the driver
in :mod:`repro.visibility.base`.  Registered for this module's duration,
it runs through the same checks as the five shipped algorithms.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (ALGORITHMS, READ_WRITE, Runtime, TaskStream,
                   oracle_dependences)
from repro.analysis import compare_algorithms
from repro.visibility.base import CoherenceAlgorithm, INITIAL_TASK_ID
from repro.visibility.history import (HistoryEntry, RegionValues, paint_into,
                                      scan_dependences)

from tests.conftest import (fig1_initial, fig1_stream, make_fig1_tree,
                            random_programs)


class ListPolicy(CoherenceAlgorithm):
    """Figure 7 with the least machinery: one list, scanned whole."""

    name = "list"

    def __init__(self, tree, field, initial, meter=None):
        super().__init__(tree, field, initial, meter)
        root = tree.root.space
        self._log = [HistoryEntry(
            READ_WRITE, root, RegionValues(root, np.array(initial)),
            INITIAL_TASK_ID)]

    def _locate(self, privilege, region, led):
        return self._log

    def _collect(self, privilege, region, log, deps, led):
        scan_dependences(privilege, region.space, log, deps, self.meter,
                         led)

    def _paint(self, region, log):
        values = np.zeros(region.space.size, dtype=self.dtype)
        paint_into(values, region.space, region.space, log, self.meter)
        return values

    def _record(self, privilege, region, values, task_id, led):
        kept = None if values is None else RegionValues(region.space,
                                                        values.copy())
        self._log.append(HistoryEntry(privilege, region.space, kept, task_id))

    def structure_tokens(self):
        return super().structure_tokens() + (("history", len(self._log)),)

    def describe(self):
        return {"kind": "painter", "history_length": len(self._log)}


@pytest.fixture(autouse=True, scope="module")
def registered():
    ALGORITHMS["list"] = ListPolicy
    try:
        yield
    finally:
        del ALGORITHMS["list"]


def test_fig1_matches_reference_and_covers_oracle():
    tree, P, G = make_fig1_tree()
    stream = fig1_stream(tree, P, G, iterations=3)
    compare_algorithms(tree, fig1_initial(tree), stream, ["list"])


@given(random_programs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_match_reference_and_cover_oracle(program):
    tree, initial, stream = program
    compare_algorithms(tree, initial, stream, ["list"])


def test_traced_replay_goes_through_the_driver():
    """``execute_trace`` replays the policy with ``_collect`` skipped and
    still lands on the untraced values and a sound graph."""
    tree, P, G = make_fig1_tree()
    stream = fig1_stream(tree, P, G, iterations=1)
    plain = Runtime(tree, fig1_initial(tree), algorithm="list")
    traced = Runtime(tree, fig1_initial(tree), algorithm="list")
    full = TaskStream()
    for _ in range(3):  # arm, capture, replay
        plain.replay(stream)
        traced.execute_trace("loop", stream)
        full.extend_from(stream)
    assert traced.meter.counters["traces_replayed"] == 1
    for field in ("up", "down"):
        assert np.array_equal(plain.read_field(field),
                              traced.read_field(field))
    assert traced.graph.missing_pairs(oracle_dependences(list(full))) == []
    assert (traced.meter.counters["intersection_tests"]
            < plain.meter.counters["intersection_tests"])
