"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "N [12 elems]" in out
        assert "wave" in out
        assert "up   =" in out


class TestValidate:
    def test_validate_circuit(self, capsys):
        assert main(["validate", "--app", "circuit", "--pieces", "3",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "raycast" in out and "values ✓" in out
        assert "agree with the sequential reference" in out

    def test_validate_pennant(self, capsys):
        assert main(["validate", "--app", "pennant", "--pieces", "2",
                     "--iterations", "1"]) == 0


class TestFigure:
    def test_small_figure(self, capsys):
        assert main(["figure", "fig16", "--max-nodes", "4",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# fig16")
        assert "raycast_dcr" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestArtifact:
    def test_table(self, capsys):
        assert main(["artifact", "--app", "stencil", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[0] == "system"
        # 5 systems × 2 nodes × 2 reps
        assert len(lines) == 1 + 5 * 2 * 2
        assert any(line.startswith("neweqcr_dcr") for line in lines)


class TestAnalyze:
    def test_serial_analyze(self, capsys):
        assert main(["analyze", "--app", "stencil", "--pieces", "2",
                     "--iterations", "1", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "serial backend" in out
        assert "shard 0: fingerprint" in out
        assert "merge verified: 2 identical analyses" in out

    def test_parallel_profile(self, capsys):
        assert main(["analyze", "--app", "stencil", "--pieces", "2",
                     "--iterations", "1", "--shards", "3",
                     "--parallel", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "process backend, 2 workers" in out
        assert "merge verified: 3 identical analyses" in out
        # per-phase perf counters from the PhaseProfile
        assert "analyze.shard2" in out
        assert "verify" in out and "ship" in out
        # render() ends with a total footer and human-readable bytes
        profile_lines = [l for l in out.splitlines() if l.strip()]
        total = next(l for l in profile_lines if l.startswith("total"))
        assert "B" in total  # shipped volume rendered as B/KiB/MiB

    def test_trace_out_and_critical_path(self, tmp_path, capsys):
        from repro.obs import load_trace
        trace = tmp_path / "stencil.json"
        assert main(["analyze", "--app", "stencil", "--pieces", "2",
                     "--iterations", "1", "--shards", "2",
                     "--trace-out", str(trace), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert f"trace written: {trace}" in out
        assert "critical path:" in out
        assert "analyze wall-clock" in out
        assert load_trace(trace)[1]  # validates, and holds spans

    def test_prof_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["analyze", "--app", "stencil", "--pieces", "2",
                     "--iterations", "1", "--shards", "2",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["prof", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "task" in out  # per-category table includes task spans

    def test_thread_backend_forced(self, capsys):
        assert main(["analyze", "--app", "circuit", "--pieces", "2",
                     "--iterations", "1", "--shards", "2",
                     "--backend", "thread", "--algorithm", "warnock"]) == 0
        out = capsys.readouterr().out
        assert "thread backend" in out


class TestExplain:
    def test_explain_names_witnesses(self, capsys):
        assert main(["explain", "7", "--app", "stencil", "--pieces", "4",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "task 7 depends on" in out
        assert "edge 7 <-" in out
        assert "via eqset" in out

    def test_explain_edge_filter(self, capsys):
        assert main(["explain", "7", "--edge", "3:7", "--app", "stencil",
                     "--pieces", "4", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "edge 7 <- 3" in out
        assert "edge 7 <- 2" not in out

    def test_explain_rejects_bad_edge(self, capsys):
        assert main(["explain", "7", "--edge", "nope"]) == 2
        assert main(["explain", "7", "--edge", "3:6"]) == 2
        assert main(["explain", "9999", "--app", "stencil"]) == 2

    def test_ledger_restored_after_explain(self):
        from repro.obs import tracer as obs
        before = obs.active_tracer()
        assert main(["explain", "0", "--pieces", "2"]) == 0
        assert obs.active_tracer() is before


class TestCensus:
    def test_census_human(self, capsys):
        assert main(["census", "--app", "stencil", "--pieces", "4",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "census (raycast)" in out
        assert "eqsets" in out
        assert "occlusion" in out

    @pytest.mark.parametrize("algorithm, shows", [
        ("raycast", "field 'charge' equivalence sets:\n0000"),
        ("tree_painter", "live items"),
        ("zbuffer", "interned sets"),
    ], ids=["raycast", "tree_painter", "zbuffer"])
    def test_census_dumps_structures(self, capsys, algorithm, shows):
        assert main(["census", "--algorithm", algorithm, "--pieces", "2"]) == 0
        out = capsys.readouterr().out
        assert shows in out and "metered operations:" in out

    def test_dot_output(self, capsys):
        assert main(["census", "--pieces", "2", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_census_json_validates(self, capsys):
        import json

        from repro.obs.census import validate_census
        assert main(["census", "--app", "circuit", "--pieces", "2",
                     "--iterations", "1", "--json",
                     "--algorithm", "tree_painter"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_census(doc)
        assert doc["algorithm"] == "tree_painter"

    def test_census_diff_identical_and_differing(self, tmp_path, capsys):
        import json
        assert main(["census", "--app", "stencil", "--pieces", "2",
                     "--iterations", "1", "--json"]) == 0
        a = capsys.readouterr().out
        assert main(["census", "--app", "stencil", "--pieces", "2",
                     "--iterations", "2", "--json"]) == 0
        b = capsys.readouterr().out
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(a)
        pb.write_text(b)
        assert main(["census-diff", str(pa), str(pa)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["census-diff", str(pa), str(pb)]) == 1
        out = capsys.readouterr().out
        assert "differing leaves" in out and "tasks" in out

    def test_census_diff_rejects_bad_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["census-diff", str(bad), str(bad)]) == 2
        assert main(["census-diff", str(tmp_path / "missing.json"),
                     str(bad)]) == 2


class TestErrorContract:
    """An unreadable file or a rejected input: ``error:``, exit 2."""

    PROBES = {
        "census-diff-directory": ["census-diff", "DIR", "DIR"],
        "census-diff-not-utf8": ["census-diff", "LATIN1", "LATIN1"],
        "analyze-no-pieces": ["analyze", "--pieces", "0"],
        "analyze-no-workers": ["analyze", "--parallel", "0"],
        "census-no-pieces": ["census", "--pieces", "0"],
        "explain-no-pieces": ["explain", "0", "--pieces", "0"],
        "validate-no-pieces": ["validate", "--pieces", "0"],
        "figure-no-nodes": ["figure", "fig12", "--max-nodes", "0"],
    }

    @pytest.mark.parametrize("probe", PROBES)
    def test_rejected_input_exits_2(self, tmp_path, capsys, probe):
        (tmp_path / "latin1.json").write_bytes(b'{"schema": "\xe9"}')
        paths = {"DIR": str(tmp_path), "LATIN1": str(tmp_path / "latin1.json")}
        assert main([paths.get(a, a) for a in self.PROBES[probe]]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])
