"""Tests for the benchmark harness and figure specifications."""

import shutil
import subprocess

import pytest

from repro.apps import CircuitApp
from repro.bench import harness
from repro.bench.figures import (FIGURES, PAPER_NODE_COUNTS, check_shape,
                                 figure_series, render_series)
from repro.bench.harness import (ARTIFACT_NAMES, PAPER_CONFIGS, BenchRow,
                                 render_rows, run_sweep, sweep_to_rows)


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(
        lambda nodes: CircuitApp(pieces=nodes, nodes_per_piece=8,
                                 wires_per_piece=12),
        node_counts=(1, 2, 4), steady_iterations=2)


class TestRunSweep:
    def test_all_cells_present(self, small_sweep):
        systems = {f"{a}_{'dcr' if d else 'nodcr'}" for a, d in PAPER_CONFIGS}
        assert set(small_sweep) == {(s, n) for s in systems for n in (1, 2, 4)}

    def test_results_positive(self, small_sweep):
        for result in small_sweep.values():
            assert result.init_time > 0
            assert result.elapsed_time > 0
            assert result.throughput_per_node > 0

    def test_deterministic(self):
        def factory(nodes):
            return CircuitApp(pieces=nodes, nodes_per_piece=8,
                              wires_per_piece=12)
        a = run_sweep(factory, (2,), steady_iterations=1)
        b = run_sweep(factory, (2,), steady_iterations=1)
        for key in a:
            assert a[key].init_time == b[key].init_time
            assert a[key].elapsed_time == b[key].elapsed_time


class TestArtifactRows:
    def test_schema(self, small_sweep):
        rows = sweep_to_rows(small_sweep, reps=5)
        assert len(rows) == len(small_sweep) * 5
        systems = {r.system for r in rows}
        assert systems == {"neweqcr_dcr", "neweqcr_nodcr", "oldeqcr_dcr",
                           "oldeqcr_nodcr", "paint_nodcr"}
        assert all(r.procs_per_node == 1 for r in rows)

    def test_artifact_names_cover_all_algorithms(self):
        assert set(ARTIFACT_NAMES) >= {a for a, _ in PAPER_CONFIGS}

    def test_render(self):
        rows = [BenchRow("neweqcr_dcr", 1, 1, 0, 0.063, 1.668)]
        text = render_rows(rows)
        lines = text.splitlines()
        assert lines[0].split("\t") == ["system", "nodes", "procs_per_node",
                                        "rep", "init_time", "elapsed_time"]
        assert lines[1] == "neweqcr_dcr\t1\t1\t0\t0.063000\t1.668000"


class TestBenchEnvironment:
    """``commit`` names the work tree that holds ``harness.py``, or is
    absent — never the HEAD of some checkout further up the path."""

    @pytest.fixture()
    def checkout(self, tmp_path):
        if shutil.which("git") is None:
            pytest.skip("git is not installed")

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "root")
        return tmp_path, git("rev-parse", "--short", "HEAD")

    @staticmethod
    def environment_at(tree, monkeypatch):
        """``bench_environment()`` as ``harness.py`` placed under ``tree``
        would report it (the function reads its module's ``__file__``)."""
        path = tree / "src" / "repro" / "bench" / "harness.py"
        path.parent.mkdir(parents=True)
        monkeypatch.setattr(harness, "__file__", str(path))
        env = harness.bench_environment()
        assert set(env) >= {"python", "platform", "numpy", "cpus"}
        assert env["cpus"] >= 1
        return env

    def test_checkout_reports_its_own_commit(self, checkout, monkeypatch):
        tree, head = checkout
        assert self.environment_at(tree, monkeypatch)["commit"] == head

    def test_export_nested_in_a_checkout_reports_none(self, checkout,
                                                      monkeypatch):
        """``make ledger-pair`` unpacks BASE under ``.bench_build/`` inside
        the checkout; git walks up and would answer with HEAD."""
        tree, _ = checkout
        assert "commit" not in self.environment_at(tree / "pair" / "base",
                                                   monkeypatch)


class TestFigureSpecs:
    def test_six_figures(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(12, 18)}
        apps = [s.app for s in FIGURES.values()]
        assert apps.count("stencil") == 2
        assert apps.count("circuit") == 2
        assert apps.count("pennant") == 2

    def test_node_counts_match_paper(self):
        assert PAPER_NODE_COUNTS == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

    def test_series_extraction(self, small_sweep):
        spec = FIGURES["fig16"]
        series = figure_series(spec, small_sweep)
        assert set(series) == {s for s, _ in small_sweep}
        for pts in series.values():
            assert [n for n, _ in pts] == [1, 2, 4]

    def test_render_series(self, small_sweep):
        spec = FIGURES["fig13"]
        text = render_series(spec, figure_series(spec, small_sweep))
        assert text.startswith("# fig13")
        assert "raycast_dcr" in text
        assert len(text.splitlines()) == 2 + 3  # header rows + 3 scales

    def test_factories_scale_pieces(self):
        for spec in FIGURES.values():
            app = spec.app_factory(2)
            assert app.pieces == 2

    def test_check_shape_small_scale_quiet(self, small_sweep):
        """At tiny scales the orderings are within noise; check_shape must
        not fire on the always-true claims."""
        problems = check_shape(FIGURES["fig13"], small_sweep)
        assert problems == [] or all("unexpectedly" not in p
                                     for p in problems)
