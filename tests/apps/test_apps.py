"""End-to-end tests of the three benchmark applications."""

import numpy as np
import pytest

from repro import Runtime
from repro.analysis import compare_algorithms, profile_graph
from repro.apps import APPS, CircuitApp, PennantApp, StencilApp, session_stream

ALGOS = ["painter", "tree_painter", "warnock", "raycast"]


class TestAppRegistry:
    def test_registry(self):
        assert set(APPS) == {"stencil", "circuit", "pennant"}

    @pytest.mark.parametrize("name", list(APPS))
    def test_common_interface(self, name):
        app = APPS[name](pieces=2)
        assert app.pieces == 2
        assert app.units_per_piece > 0
        assert len(app.init_stream()) > 0
        assert len(app.iteration_stream()) > 0
        assert app.setup_objects() > 0


class TestStencil:
    def test_partitions(self):
        app = StencilApp(pieces=4, tile=4)
        assert app.P.disjoint and app.P.complete
        assert app.H.is_aliased or app.pieces == 1
        assert app.tree.root.space.size == 4 * 16

    def test_matches_direct_numpy(self):
        """The runtime-executed stencil equals a plain NumPy evaluation of
        the same computation on the full grid."""
        app = StencilApp(pieces=4, tile=4)
        iterations = 3
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, iterations))
        want = app.reference_result(iterations)
        np.testing.assert_allclose(rt.read_field("out"), want["out"])
        np.testing.assert_allclose(rt.read_field("in"), want["in"])

    def test_all_algorithms_agree(self):
        app = StencilApp(pieces=4, tile=4)
        compare_algorithms(app.tree, app.initial, session_stream(app, 2),
                           exact=False)

    def test_parallelism_profile(self):
        """Each phase's tasks are mutually independent."""
        app = StencilApp(pieces=4, tile=4)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 2))
        profile = profile_graph(rt.graph)
        assert profile.max_width >= 4

    def test_cross_piece_dependence(self):
        """A tile's stencil task must depend on its neighbours' previous
        increment (halo coherence through a different partition)."""
        app = StencilApp(pieces=4, tile=4)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 2))
        # second iteration stencil tasks: ids 12..15 (4 init, 8 iter1)
        stencil2 = [t for t in rt.tasks if t.name.startswith("stencil")][4:]
        increments1 = {t.task_id for t in rt.tasks
                       if t.name.startswith("increment")}
        for t in stencil2:
            deps = rt.graph.ancestors_of(t.task_id)
            assert deps & increments1

    def test_single_piece(self):
        app = StencilApp(pieces=1, tile=4)
        compare_algorithms(app.tree, app.initial, session_stream(app, 2),
                           exact=False)


class TestCircuit:
    def test_partitions(self):
        app = CircuitApp(pieces=4, nodes_per_piece=8, wires_per_piece=12)
        assert app.ALL.disjoint and app.ALL.complete
        assert app.P.disjoint and not app.P.complete   # nodes only
        assert app.W.disjoint and not app.W.complete   # wires only
        assert not app.G.complete
        # nodes and wires are distinct elements of one collection
        assert app.P[0].space.isdisjoint(app.W[0].space)

    def test_current_field_carries_dataflow(self):
        """The wire current field must induce the currents→distribute
        dependence (it used to live in app scratch, invisible to the
        analysis — a bug the parallel executor exposed)."""
        app = CircuitApp(pieces=3, nodes_per_piece=8, wires_per_piece=12)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 1))
        currents = {t.point: t.task_id for t in rt.tasks
                    if t.name.startswith("currents")}
        for t in rt.tasks:
            if t.name.startswith("distribute"):
                assert currents[t.point] in rt.graph.dependences_of(
                    t.task_id)

    def test_all_algorithms_agree(self):
        app = CircuitApp(pieces=4, nodes_per_piece=8, wires_per_piece=12)
        compare_algorithms(app.tree, app.initial, session_stream(app, 3),
                           exact=False)

    def test_charge_conservation(self):
        """Wire currents move charge between nodes; voltages change but
        the physics stays deterministic across runs."""
        app = CircuitApp(pieces=3, nodes_per_piece=8, wires_per_piece=10,
                         seed=5)
        rt1 = Runtime(app.tree, app.initial, algorithm="raycast")
        rt1.replay(session_stream(app, 4))
        v1 = rt1.read_field("voltage")
        rt2 = Runtime(app.tree, app.initial, algorithm="warnock")
        rt2.replay(session_stream(app, 4))
        np.testing.assert_allclose(v1, rt2.read_field("voltage"))
        assert not np.allclose(v1, 0.0)

    def test_ghost_reductions_cross_pieces(self):
        """External wires must actually move charge across pieces: the
        update phase of piece i depends on neighbours' distribute phase."""
        app = CircuitApp(pieces=4, nodes_per_piece=8, wires_per_piece=16,
                         pct_external=0.5, seed=1)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 1))
        updates = [t for t in rt.tasks if t.name.startswith("update")]
        distributes = {t.task_id: t.point for t in rt.tasks
                       if t.name.startswith("distribute")}
        crossing = 0
        for t in updates:
            for dep in rt.graph.ancestors_of(t.task_id):
                if dep in distributes and distributes[dep] != t.point:
                    crossing += 1
        assert crossing > 0

    def test_single_piece(self):
        app = CircuitApp(pieces=1, nodes_per_piece=8, wires_per_piece=12)
        compare_algorithms(app.tree, app.initial, session_stream(app, 2),
                           exact=False)


class TestPennant:
    def test_partitions(self):
        app = PennantApp(pieces=4, zones_x=3, zones_y=3)
        assert app.P.disjoint and app.P.complete
        assert app.Z.is_aliased and app.Z.complete

    def test_all_algorithms_agree(self):
        app = PennantApp(pieces=3, zones_x=3, zones_y=3)
        compare_algorithms(app.tree, app.initial, session_stream(app, 3),
                           exact=False)

    def test_multiple_reduction_operators(self):
        """Pennant uses distinct reduction operators (sum and min) — the
        property the paper calls out explicitly."""
        app = PennantApp(pieces=2, zones_x=3, zones_y=3)
        ops = set()
        for task in app.iteration_stream():
            for req in task.requirements:
                if req.privilege.is_reduce:
                    ops.add(req.privilege.redop.name)
        assert ops == {"sum", "min"}

    def test_dt_decreases_monotonically(self):
        app = PennantApp(pieces=3, zones_x=3, zones_y=3)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 1))
        dt1 = rt.read_field("dt").copy()
        rt.replay(app.iteration_stream())
        dt2 = rt.read_field("dt")
        assert (dt2 <= dt1 + 1e-12).all()
        assert np.isfinite(dt2).all()

    def test_global_dt_task_depends_on_all_pieces(self):
        app = PennantApp(pieces=4, zones_x=3, zones_y=3)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 1))
        hydro = [t for t in rt.tasks if t.name == "hydro_dt"][0]
        dt_tasks = {t.task_id for t in rt.tasks if t.name.startswith("dt[")}
        assert dt_tasks <= rt.graph.ancestors_of(hydro.task_id)

    def test_single_piece(self):
        app = PennantApp(pieces=1, zones_x=3, zones_y=3)
        compare_algorithms(app.tree, app.initial, session_stream(app, 2),
                           exact=False)
