#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (metric, workload): both medians, the ratio **and its
base**, the bound (the ledger's own for that workload,
``catalogue.LEDGER_BOUNDS`` — tighter than the driver's single bound
wherever the workload is steadier than the noisiest one), and a verdict —

* ``better``        every repetition of B beats every repetition of A
                    (with three repetitions that is a hint, not a claim:
                    a gain is claimed on ten alternating pairs, as the
                    choosing-metrics guide prescribes);
* ``within bound``  B is no worse than A by more than the bound;
* ``worse``         B is worse than A by more than the bound;
* ``unresolved``    the repetitions do not agree on the ratio to within
                    the bound, or the workload was stamped ``noisy``
                    (then its timings are never "unchanged").

Repetition ``i`` of both files ran the same inputs (``service_mix`` gives
each repetition its own arrival schedule), so the spread is taken over
the paired ratios ``B_i / A_i``, not over either side's own values.

A is the parent, B the change.  Per-layer rows (from traced passes) have
no bound and get no verdict.  The exit code is non-zero when any row is
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import catalogue

TIMING_UNITS = {"s", "ms", "us", "1/s"}


def spread(a: dict, b: dict) -> float:
    """How far the paired repetitions disagree on B/A: the range of the
    ratios over their median (0 when there is a single repetition)."""
    ratios = sorted(y / x for x, y in zip(a["reps"], b["reps"]))
    return (ratios[-1] - ratios[0]) / ratios[len(ratios) // 2]


def verdict(a: dict, b: dict, better: str, bound: float,
            noisy: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if noisy and a["unit"] in TIMING_UNITS:
        return "unresolved (noisy)"
    if len(a["reps"]) > 1 and (
            max(b["reps"]) < min(a["reps"]) if better == "lower"
            else min(b["reps"]) > max(a["reps"])):
        return "better"
    if spread(a, b) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "within bound"


def rows(doc_a: dict, doc_b: dict):
    """Yield ``(workload, metric, a, b, bound, verdict)``; per-layer
    rows carry ``bound`` and ``verdict`` of ``None``."""
    better_of = {name: better
                 for name, _, better, _ in catalogue.END_TO_END}
    for workload in catalogue.WORKLOADS:
        wa = doc_a["workloads"].get(workload, {})
        wb = doc_b["workloads"].get(workload, {})
        for mode in ("end_to_end", "traced"):
            if mode not in wa or mode not in wb:
                continue
            noisy = bool(wa[mode]["noisy"] or wb[mode]["noisy"])
            for name, a in wa[mode]["metrics"].items():
                b = wb[mode]["metrics"].get(name)
                if b is None:
                    continue
                if mode == "end_to_end":
                    bound = catalogue.ledger_bound(workload, name)
                    yield (workload, name, a, b, bound,
                           verdict(a, b, better_of[name], bound, noisy))
                else:
                    yield workload, name, a, b, None, None


def render(doc_a: dict, doc_b: dict) -> tuple[str, int]:
    lines = [f"A = {doc_a['environment'].get('commit', '?')} "
             f"({doc_a.get('stamped', '?')}), "
             f"B = {doc_b['environment'].get('commit', '?')} "
             f"({doc_b.get('stamped', '?')})",
             f"{'workload':<12} {'metric':<40} {'A':>11} {'B':>11} "
             f"{'B/A':>7} {'(base A)':<14} {'bound':>6}  verdict"]
    worse = 0
    for workload, name, a, b, bound, outcome in rows(doc_a, doc_b):
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        base = f"({a['value']:.4g} {a['unit']})"
        limit = f"{bound * 100:.0f}%" if bound is not None else "-"
        lines.append(f"{workload:<12} {name:<40} {a['value']:>11.5g} "
                     f"{b['value']:>11.5g} {ratio:>7.3f} {base:<14} "
                     f"{limit:>6}  {outcome or ''}")
        worse += outcome == "worse"
    lines.append(f"{worse} worse")
    return "\n".join(lines), worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    text, worse = render(doc_a, doc_b)
    print(text)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
