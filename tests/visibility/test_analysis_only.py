"""An analysis-only runtime is the valued runtime's analysis, to the byte.

``Runtime(tree, None, ...)`` keeps no values: its stores record
:data:`~repro.visibility.history.UNVALUED` entries and ``paint_into(None,
...)`` only walks.  Every replicated shard analysis runs on one, so both
the runtime and every backend are held here to a valued runtime fed the
same stream: the same dependence graph, the same structure tokens and
meter counts, and the same per-task counters and touches in order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (ALGORITHMS, READ, READ_WRITE, CoherenceError,
                   RegionRequirement, Runtime, TaskError, TaskStream, reduce)
from repro.apps import APPS
from repro.distributed import ShardedRuntime
from repro.distributed.verify import (analysis_fingerprint, graph_fingerprint,
                                      structure_fingerprint)
from repro.visibility.eqset import HISTORY_COMPACTION_LIMIT
from repro.visibility.history import UNVALUED, RegionValues
from repro.visibility.painter_tree import CompositeView

from tests.conftest import (fig1_initial, fig1_stream, make_fig1_tree,
                            random_programs)
from tests.distributed.test_cost_log_table import masked

ALGORITHM_NAMES = sorted(ALGORITHMS)

#: Iterations of :func:`straddling_stream`: each adds three reductions to
#: every ``down`` set a ghost region meets, so the histories collapse.
ITERATIONS = HISTORY_COMPACTION_LIMIT // 3 + 2


def observed(runtime: Runtime) -> tuple:
    """What an analysis must reproduce: the graph and structure digests
    and the per-task cost log, uids masked (they are process-global)."""
    return (graph_fingerprint(runtime.graph), structure_fingerprint(runtime),
            [(sorted(cost.counters.items()),
              [masked(key) for key in cost.touches])
             for cost in runtime.cost_log])


def both(tree, initial, algorithm: str, streams) -> tuple[Runtime, Runtime]:
    """A valued runtime running the bodies and an analysis-only one
    launching the same tasks without them."""
    valued = Runtime(tree, initial, algorithm=algorithm, record_costs=True)
    bare = Runtime(tree, None, algorithm=algorithm, record_costs=True)
    for stream in streams:
        for task in stream:
            valued.launch(task.name, task.requirements, task.body,
                          task.point)
            bare.launch(task.name, task.requirements, None, task.point)
    return valued, bare


def _bump(*buffers) -> None:
    for buf in buffers:
        if buf.flags.writeable:
            buf += 1


def straddling_stream(tree, P, G) -> TaskStream:
    """Figure 5's program plus writes through the aliased ghost regions,
    which straddle the primary pieces (ray casting trims the sets they
    cut and installs one dominating set; Warnock splits), and a ``down``
    field that is only ever reduced and read, so its histories grow past
    :data:`HISTORY_COMPACTION_LIMIT` and collapse."""
    stream = fig1_stream(tree, P, G, 1)
    for i in range(3):
        stream.append(f"g[{i}]", [RegionRequirement(G[i], "up", READ_WRITE)],
                      _bump, point=i)
        stream.append(f"r[{i}]",
                      [RegionRequirement(G[i], "down", reduce("sum")),
                       RegionRequirement(P[i], "down", reduce("sum"))],
                      _bump, point=i)
        stream.append(f"s[{i}]",
                      [RegionRequirement(G[(i + 1) % 3], "down",
                                         reduce("sum"))],
                      _bump, point=i)
    stream.append("look", [RegionRequirement(tree.root, "down", READ)])
    return stream


def _only_down(stream) -> TaskStream:
    """``stream`` without its ``down`` writes: that field is then only
    reduced and read, and its histories have to be compacted."""
    out = TaskStream()
    for task in stream:
        if not any(r.field == "down" and r.privilege.is_write
                   for r in task.requirements):
            out.append(task.name, task.requirements, task.body, task.point)
    return out


class TestSameAnalysis:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_straddling_writes_and_compaction(self, algorithm):
        tree, P, G = make_fig1_tree()
        streams = [_only_down(straddling_stream(tree, P, G))
                   for _ in range(ITERATIONS)]
        valued, bare = both(tree, fig1_initial(tree), algorithm, streams)
        assert observed(bare) == observed(valued)
        for runtime in (valued, bare):
            for name in tree.field_space.names:
                runtime.algorithm_for(name).check_invariants()
        counts = bare.meter.snapshot()
        if algorithm == "warnock":
            assert counts["eqsets_split"] > 0
        if algorithm == "raycast":
            assert counts["eqsets_split"] > 0
            assert counts["eqsets_coalesced"] > 0
        if algorithm in ("warnock", "raycast"):
            store = bare.algorithm_for("down").store
            assert any(e.collapsed_ids for s in store.all_sets()
                       for e in s.history), "no history was compacted"

    @pytest.mark.parametrize("app_name", sorted(APPS))
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_applications(self, app_name, algorithm):
        """Each app at 4 pieces, init + 17 iterations: long enough that
        Pennant's reduced-only ``dt`` collapses its histories (at the
        16th)."""
        app = APPS[app_name](pieces=4)
        streams = [app.init_stream()] + [app.iteration_stream()
                                         for _ in range(17)]
        valued, bare = both(app.tree, app.initial, algorithm, streams)
        assert observed(bare) == observed(valued)
        if app_name == "pennant" and algorithm in ("warnock", "raycast"):
            store = bare.algorithm_for("dt").store
            assert any(e.collapsed_ids for s in store.all_sets()
                       for e in s.history), "no history was compacted"

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(random_programs())
    def test_random_programs(self, program):
        """Random trees with aliased partitions and random privileges."""
        tree, initial, stream = program
        for algorithm in ALGORITHM_NAMES:
            valued, bare = both(tree, initial, algorithm, [stream])
            assert observed(bare) == observed(valued), algorithm


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_backend_replicas_match_a_valued_runtime(backend, app_name):
    """Every replica a backend hosts is analysis-only; each verified window
    leaves the reference replica where a valued runtime would be."""
    for algorithm in ALGORITHM_NAMES:
        app, twin = APPS[app_name](pieces=4), APPS[app_name](pieces=4)
        valued = Runtime(twin.tree, twin.initial, algorithm=algorithm)
        with ShardedRuntime(app.tree, app.initial, shards=3,
                            algorithm=algorithm, backend=backend) as srt:
            assert srt.backend.reference.analysis_only
            for window, mirror in ((app.init_stream(), twin.init_stream()),
                                   (app.iteration_stream(),
                                    twin.iteration_stream())):
                srt.execute(window)
                valued.replay(mirror)
                assert analysis_fingerprint(srt.backend.reference) == \
                    analysis_fingerprint(valued), (algorithm, backend)


class TestAnalysisOnlySurface:
    def test_body_refused_before_any_analysis(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, None)
        rt.launch("t", [RegionRequirement(P[0], "up", READ_WRITE)])
        before = (rt.next_task_id, rt.meter.snapshot())
        with pytest.raises(TaskError, match="analysis-only"):
            rt.launch("u", [RegionRequirement(P[1], "up", READ_WRITE)],
                      _bump)
        assert (rt.next_task_id, rt.meter.snapshot()) == before

    def test_read_field_refused(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(TaskError, match="analysis-only"):
            Runtime(tree, None).read_field("up")

    def test_commit_with_values_refused(self):
        tree, P, _ = make_fig1_tree()
        algorithm = Runtime(tree, None).algorithm_for("up")
        with pytest.raises(CoherenceError, match="no values"):
            algorithm.commit(READ_WRITE, P[0], np.zeros(4, np.int64), 0)


def _visible_entries(algorithm) -> list:
    """The visible history entries of a store that keeps entries."""
    name = algorithm.name
    if name == "painter":
        entries = algorithm._history
    elif name == "tree_painter":
        entries = [e for st in algorithm._states.values()
                   for e in st.entries if not isinstance(e, CompositeView)]
    else:
        entries = [e for s in algorithm.store.all_sets() for e in s.history]
    return [e for e in entries if e.is_visible]


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("initial", [fig1_initial, None],
                         ids=["valued", "analysis-only"])
def test_check_invariants_flags_mixed_values(algorithm, initial):
    """A store holds valued entries or unvalued ones, never both: one
    entry flipped to the other kind is caught."""
    tree, P, G = make_fig1_tree()
    rt = Runtime(tree, None if initial is None else initial(tree),
                 algorithm=algorithm)
    for task in fig1_stream(tree, P, G, 1):
        rt.launch(task.name, task.requirements, None, task.point)
    store = rt.algorithm_for("up")
    store.check_invariants()
    if algorithm == "zbuffer":
        store._values = np.zeros(tree.root.space.size) \
            if initial is None else None
    else:
        entries = _visible_entries(store)
        assert len(entries) > 1
        entry = entries[-1]
        entry.values = UNVALUED if initial is not None else RegionValues(
            entry.domain, np.zeros(entry.domain.size, np.int64))
    with pytest.raises(CoherenceError, match="mixes valued and unvalued"):
        store.check_invariants()
