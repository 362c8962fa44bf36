"""Tests of the ledger itself.  Run explicitly —

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py

— ``testpaths`` keeps them out of tier-1 (they spawn the benchmark).
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cal  # noqa: E402
import catalogue  # noqa: E402
import compare  # noqa: E402
from spans import SpanLog  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def test_calibration_kernel_is_pinned_and_standalone():
    assert cal._slice() == cal.CAL_CHECKSUM
    tree = ast.parse((HERE / "cal.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "multiprocessing", "os", "time",
                        "numpy"}


def test_calibrator_brings_durations_to_reference_speed():
    now = [0.0]
    calibrator = cal.Calibrator(clock=lambda: now[0])
    calibrator.times, calibrator.rates = [0.0, 10.0], [cal.CAL_REF,
                                                       cal.CAL_REF * 2]
    # a machine twice as fast as the reference: durations double
    assert list(calibrator.scale([0.0, 5.0, 10.0, 99.0])) == \
        [1.0, 1.5, 2.0, 2.0]


def test_benchmark_json_is_the_catalogue_and_within_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == catalogue.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
    names = [w["name"] for w in doc["workloads"]]
    assert 2 <= len(names) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        names.append(metric["name"])
        assert unit_ok.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(name_ok.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in doc["end_to_end"])}]
    runs = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60 and runs * 37 <= 3420


def test_seed_decides_the_inputs():
    import stream
    import svc

    def wires(seed):
        graph = stream.build_app("circuit", 8, seed).graph
        return [piece.tolist() for piece in graph.wires]

    assert wires(1) == wires(1)
    assert wires(1) != wires(2)
    same = svc.open_schedule(1, 9.0, 4.0)
    assert same == svc.open_schedule(1, 9.0, 4.0)
    assert same != svc.open_schedule(2, 9.0, 4.0)


def test_self_time_is_duration_minus_children():
    log = SpanLog()
    top = log.reserve("launch", "c")
    log.add("materialize", 1.0, 4.0, top, "c")
    log.add("commit", 4.0, 5.0, top, "c")
    log.finish(top, 0.0, 10.0)
    times = log.self_times()
    assert times[("c", "launch")] == [1, 10.0, 6.0]
    assert times[("c", "materialize")] == [1, 3.0, 3.0]
    doubled = log.self_times(lambda ends: 2.0)
    assert doubled[("c", "launch")] == [1, 20.0, 12.0]


def _entry(reps, unit="ms"):
    return {"value": sorted(reps)[len(reps) // 2], "unit": unit,
            "reps": list(reps)}


def test_compare_verdicts():
    v = compare.verdict
    steady = _entry([100, 101, 102])
    assert v(steady, _entry([103, 104, 105]), "lower", 0.10, False) \
        == "within bound"
    assert v(steady, _entry([120, 121, 122]), "lower", 0.10, False) \
        == "worse"
    assert v(steady, _entry([80, 81, 82]), "lower", 0.10, False) == "better"
    assert v(steady, _entry([80, 81, 82]), "higher", 0.10, False) == "worse"
    assert v(steady, _entry([90, 105, 125]), "lower", 0.10, False) \
        == "unresolved"
    # a noisy workload's timings are never "unchanged"
    assert v(steady, _entry([100, 101, 102]), "lower", 0.10, True) \
        == "unresolved (noisy)"
    assert v(_entry([50, 50, 50], "MB"), _entry([50, 50, 50], "MB"),
             "lower", 0.10, True) == "within bound"


def test_compare_exits_nonzero_on_worse(tmp_path):
    def doc(value):
        entry = _entry([value, value * 1.01, value * 1.02])
        metrics = {name: dict(entry, unit=unit)
                   for name, unit, _, _ in catalogue.END_TO_END}
        return {"environment": {}, "workloads": {"steady_deep": {
            "end_to_end": {"noisy": [], "metrics": metrics}}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc(100.0)))
    b.write_text(json.dumps(doc(100.0)))
    assert compare.main([str(a), str(a)]) == 0
    b.write_text(json.dumps(doc(200.0)))
    assert compare.main([str(a), str(b)]) == 1


def test_selftest_names_every_metric_and_catches_a_wrong_result():
    proc = subprocess.run(RUN + ["--selftest"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout


def test_corrupted_reference_exits_nonzero_with_failed_share():
    proc = subprocess.run(
        RUN + ["--workload", "steady_deep", "--seconds", "2", "--corrupt",
               "--out", str(HERE / "out" / "result-corrupt.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] > 0 and doc["failed"] / doc["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    import shutil

    target = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "steady_deep", "--seed", "1", "--seconds", "20", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
