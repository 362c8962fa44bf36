"""Python call events per launch, per coherence algorithm.

The ledger's ``runtime.py_calls_per_task`` probe (``sys.setprofile``
call events over init + 2 iterations; exact and repeatable on one Python
version) run for every algorithm at the ``steady_deep`` width, averaged
over the three applications as the ledger averages its ray-casting
cells.  The ledger records ray casting only; this prints all five, on
whichever Python runs it.  Log only: nothing gates on it.

    PYTHONPATH=src python benchmarks/py_calls.py     # make calls
"""

import os
import platform
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "ledger"))

import stream  # noqa: E402  (the ledger's own probe)
from catalogue import ALGS, APP_NAMES  # noqa: E402
from workloads import sizes  # noqa: E402

SEED = 1


def main() -> None:
    pieces = sizes(20)["deep_pieces"]
    print(f"runtime.py_calls_per_task  (Python {platform.python_version()}, "
          f"{pieces} pieces, seed {SEED}, init + 2 iterations)")
    for alg in ALGS:
        calls = [stream.probe_py_calls(stream.Cell(app, alg, pieces, 2), SEED)
                 for app in APP_NAMES]
        print(f"  {alg:<13}{sum(calls) / len(calls):9.2f}")


if __name__ == "__main__":
    main()
