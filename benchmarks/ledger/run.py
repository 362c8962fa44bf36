#!/usr/bin/env python3
"""The layer ledger: four workloads, end-to-end metrics at reference
speed, and an outside-in traced pass.

    python3 benchmarks/ledger/run.py                       # everything
    python3 benchmarks/ledger/run.py --traced              # + traced pass
    python3 benchmarks/ledger/run.py --workload cold_wide --seed 3
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds 20 \\
        --trace 0|1                                        # driver form
    python3 benchmarks/ledger/run.py --selftest

Every repetition of a workload runs in a fresh interpreter spawned from
here, one after the other (clean caches, honest set-up time and peak
RSS); a metric is the median over the repetitions.  With ``--workload``
the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end ones, or with
``--trace 1`` the per-layer ones).  The exit code is non-zero when any
correctness check failed.  See README.md beside this file.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import catalogue  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
SCHEMA = "repro.ledger/1"

SELFTEST_SECONDS = 2.0
CHILD_TIMEOUT = 170.0


# ----------------------------------------------------------------------
# one repetition, in this interpreter
# ----------------------------------------------------------------------
def repetition(args) -> int:
    """Child entry: run one repetition (or the traced pass) of one
    workload and print its document as the last line."""
    import resource

    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - its import is part of set-up

    import cal as calibration
    import placement
    import workloads
    from spans import SpanLog

    placement.pin_driver()
    ready = time.monotonic()
    cal = calibration.Calibrator(worker_cpus=placement.WORKER_CPUS)
    first_rate = cal.burst()   # the import is scaled by this one figure
    began = cal.clock()
    import_raw = ready - (args.spawned if args.spawned else _STARTED)

    if args.trace:
        log = SpanLog()
        out = workloads.trace(args.workload, args.seconds, args.seed, cal,
                              log)
        log.write(OUT / f"trace-{args.workload}.json", {
            "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "cal_ref": calibration.CAL_REF,
            "cal_times": cal.times, "cal_rates": cal.rates})
        metrics = {name: [value, None]
                   for name, value in out["metrics"].items()}
    else:
        out = workloads.measure(args.workload, args.seconds, args.seed, cal,
                                corrupt=args.corrupt, rep=args.rep)
        metrics = out["metrics"]
        metrics["setup_s"] = [
            import_raw * first_rate / calibration.CAL_REF + out["setup"][0],
            import_raw + out["setup"][1]]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = [(own + kids) / 1024.0] * 2

    cal.close()
    summary = cal.summary()
    share = 100.0 * cal.spent / (cal.clock() - began)
    if args.trace:
        metrics["bench.cal_ticks_per_s"] = [summary["median"], None]
        metrics["bench.cal_share"] = [share, None]
    noisy = list(out.get("noisy", ()))
    if share > workloads.CAL_SHARE_LIMIT:
        noisy.append(f"calibration took {share:.1f}% of the run")
    print(json.dumps({
        "metrics": metrics, "attempted": out["attempted"],
        "failed": out["failed"], "problems": out["problems"],
        "noisy": noisy, "cal": summary, "cal_share": share,
        "samples": out.get("samples"), "table": out.get("table")}))
    return 1 if out["failed"] else 0


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int,
          corrupt: bool = False, rep: int = 0) -> dict:
    """Run one repetition in a fresh interpreter; returns its document.
    Raises when the child printed none (it could not run at all)."""
    command = [sys.executable, str(HERE / "run.py"), "--rep", str(rep),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(trace),
               "--spawned", repr(time.monotonic())]
    if corrupt:
        command.append("--corrupt")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{workload}: repetition exited {proc.returncode} without a "
            "result") from None
    return doc


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 corrupt: bool = False, repetitions: int | None = None
                 ) -> dict:
    """All repetitions of one workload -> medians per metric."""
    if repetitions is None:
        repetitions = 1 if trace else catalogue.REPETITIONS
    wanted = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    units = {row[0]: row[1] for row in wanted}
    docs = [spawn(workload, seed, seconds, trace, corrupt, rep)
            for rep in range(repetitions)]
    metrics = {}
    for name, unit in units.items():
        reps = [doc["metrics"][name] for doc in docs
                if name in doc["metrics"]]
        if len(reps) != len(docs):
            raise RuntimeError(f"{workload}: metric {name} missing from "
                               "a repetition")
        values = [float(v) for v, _ in reps]
        entry = {"value": statistics.median(values), "unit": unit,
                 "reps": values}
        if reps[0][1] is not None:
            entry["raw"] = statistics.median(float(r) for _, r in reps)
        metrics[name] = entry
    extra = set().union(*(doc["metrics"] for doc in docs)) - set(units)
    if extra:
        raise RuntimeError(f"{workload}: unnamed metrics {sorted(extra)}")
    rates = [doc["cal"] for doc in docs]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": bool(trace), "repetitions": repetitions,
        "metrics": metrics,
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": sum(doc["failed"] for doc in docs),
        "problems": [p for doc in docs for p in doc["problems"]],
        "noisy": sorted({n for doc in docs for n in doc["noisy"]}),
        "cal_rate": {"min": min(r["min"] for r in rates),
                     "median": statistics.median(r["median"]
                                                 for r in rates),
                     "max": max(r["max"] for r in rates)},
        "cal_share": statistics.median(doc["cal_share"] for doc in docs),
        "samples": docs[0]["samples"],
        "table": docs[0]["table"],
    }


def busy_machine() -> list[str]:
    load = os.getloadavg()[0]
    cores = len(os.sched_getaffinity(0))
    if load > cores:
        return [f"load average {load:.2f} above {cores} cores at start"]
    return []


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def render(result: dict) -> str:
    mode = "traced pass, per-layer" if result["traced"] else \
        f"end to end, median of {result['repetitions']} repetitions"
    lines = [f"== {result['workload']} ({mode}; seed {result['seed']}, "
             f"{result['seconds']:g} s sizes) =="]
    width = max(len(name) for name in result["metrics"])
    for name, entry in result["metrics"].items():
        raw = f"   raw {entry['raw']:.6g}" if "raw" in entry else ""
        lines.append(f"  {name:<{width}}  {entry['value']:>12.6g} "
                     f"{entry['unit']:<6}{raw}")
    share = result["failed"] / result["attempted"]
    lines.append(f"  failed_share {share:.6g}  "
                 f"({result['failed']} of {result['attempted']})   "
                 f"cal {result['cal_rate']['median']:.0f} ticks/s "
                 f"[{result['cal_rate']['min']:.0f}.."
                 f"{result['cal_rate']['max']:.0f}], "
                 f"{result['cal_share']:.1f}% of the run")
    if result["samples"]:
        lines.append("  samples per repetition: "
                     f"{result['samples']['ops']} operations, "
                     f"{result['samples']['latency']} in the latency "
                     "percentiles")
    for problem in result["problems"]:
        lines.append(f"  FAILED: {problem}")
    for reason in result["noisy"]:
        lines.append(f"  NOISY: {reason}")
    if result.get("table"):
        lines.append(render_table(result["table"]))
    return "\n".join(lines)


def render_table(table: dict) -> str:
    """The per-layer answer to "where do the µs/task go"."""
    columns = ("untraced", "materialize", "commit", "body", "add_task",
               "residual")
    lines = ["  us/task at reference speed  "
             + "".join(f"{c:>12}" for c in columns)]
    for alg, row in table.items():
        lines.append(f"  {alg:<28}"
                     + "".join(f"{row[c]:>12.1f}" for c in columns))
    return "\n".join(lines)


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()}})


def environment() -> dict:
    sys.path.insert(0, str(SRC))
    from repro.bench.harness import bench_environment

    import cal as calibration

    env = bench_environment()
    env["nproc"] = len(os.sched_getaffinity(0))
    env["CAL_REF"] = calibration.CAL_REF
    return env


def write_result(results: list[dict], out: Path | None,
                 append_history: bool) -> Path:
    """Merge this invocation's workloads into ``result-<commit>.json``
    (or ``out``); optionally append one line to the trajectory file."""
    env = environment()
    path = out or OUT / f"result-{env.get('commit', 'unknown')}.json"
    doc = {"schema": SCHEMA, "environment": env, "workloads": {}}
    if path.exists():
        try:
            old = json.loads(path.read_text())
            if old.get("schema") == SCHEMA:
                doc["workloads"] = old["workloads"]
        except ValueError:
            pass
    for result in results:
        slot = doc["workloads"].setdefault(result["workload"], {})
        slot["traced" if result["traced"] else "end_to_end"] = result
    doc["stamped"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if append_history:
        line = {"stamped": doc["stamped"], "environment": env,
                "workloads": {
                    r["workload"]: {
                        "noisy": bool(r["noisy"]), "failed": r["failed"],
                        "metrics": {n: e["value"]
                                    for n, e in r["metrics"].items()}}
                    for r in results if not r["traced"]}}
        with HISTORY.open("a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------
def selftest() -> int:
    """Tiny sizes, under 20 s: the output names every metric with its
    unit, and a corrupted reference fails the run."""
    began = time.monotonic()
    problems = []
    committed = ROOT / "BENCHMARK.json"
    if committed.exists() and \
            json.loads(committed.read_text()) != catalogue.benchmark_json():
        problems.append("BENCHMARK.json differs from the catalogue")
    runs = [(w, 0) for w in catalogue.WORKLOADS] + [("steady_deep", 1)]
    for workload, trace in runs:
        try:
            result = run_workload(workload, 0, SELFTEST_SECONDS, trace,
                                  repetitions=1)
        except RuntimeError as exc:
            problems.append(str(exc))
            continue
        problems += [f"{workload}: {p}" for p in result["problems"]]
        for name, entry in result["metrics"].items():
            if not isinstance(entry["value"], float) or not entry["unit"]:
                problems.append(f"{workload}: {name} has no value or unit")
        print(f"selftest {workload} trace={trace}: "
              f"{len(result['metrics'])} metrics, "
              f"{result['attempted']} attempted")
    broken = run_workload("steady_deep", 0, SELFTEST_SECONDS, 0,
                          corrupt=True, repetitions=1)
    if broken["failed"] == 0:
        problems.append("a corrupted reference did not fail the run")
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print(f"selftest {'failed' if problems else 'ok'} in "
          f"{time.monotonic() - began:.1f} s")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue.RUN_SECONDS),
                        help="size of one run; sizes scale by "
                        f"seconds/{catalogue.FULL_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run the traced pass after the measured one")
    parser.add_argument("--out", type=Path, help="result file")
    parser.add_argument("--append-history", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb the reference values (self-test)")
    parser.add_argument("--rep", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the ledger measures the "
              "repro package of the checkout it sits in", file=sys.stderr)
        return 2
    if args.rep is not None:
        return repetition(args)
    if args.selftest:
        return selftest()

    busy = busy_machine()
    names = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    modes = [args.trace] if args.workload and not args.traced else \
        [0, 1] if args.traced else [0]
    results = []
    for name in names:
        for trace in modes:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  args.corrupt)
            result["noisy"] = sorted(set(result["noisy"]) | set(busy))
            results.append(result)
            print(render(result), flush=True)
    path = write_result(results, args.out, args.append_history)
    print(f"result file: {path}")
    if args.workload and len(results) == 1:
        print(contract_line(results[0]))
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
