"""A traced replay is the launch path minus the dependence scan.

``Runtime._run`` drives both; a replay passes ``scan=False`` so the
driver skips each policy's ``_collect`` and nothing else.  This pins what
that means observably: after the same program, a runtime that replayed
its iterations from a trace holds the same values, the same analysis
structure and the same meter totals as one that analysed every launch —
except for the events only the scan charges, which can only be fewer.
(The dependence graphs themselves are compared in ``test_tracing.py``.)
"""

import numpy as np
import pytest

from repro import ALGORITHMS, Runtime
from repro.apps import APPS

PIECES = 4
ITERATIONS = 4  # under a trace: arm, capture, two replays

#: What the dependence scan charges: its entries and overlap tests, and —
#: tree painter — the composite views its privilege-filtered walk enters.
SCAN_EVENTS = {"entries_scanned", "intersection_tests", "views_traversed"}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_replay_is_launch_minus_scan(app_name, algorithm):
    app = APPS[app_name](pieces=PIECES)
    analysed = Runtime(app.tree, app.initial, algorithm=algorithm)
    replayed = Runtime(app.tree, app.initial, algorithm=algorithm)
    for rt in (analysed, replayed):
        rt.replay(app.init_stream())
    for _ in range(ITERATIONS):
        analysed.replay(app.iteration_stream())
        replayed.execute_trace("iteration", app.iteration_stream())
    assert replayed.meter.counters["traces_replayed"] == 2

    for field in app.tree.field_space.names:
        assert np.array_equal(analysed.read_field(field),
                              replayed.read_field(field)), field
        assert (analysed.algorithm_for(field).structure_tokens()
                == replayed.algorithm_for(field).structure_tokens()), field

    full = analysed.meter.snapshot()
    lean = {event: n for event, n in replayed.meter.snapshot().items()
            if not event.startswith("traces_")}
    assert set(lean) == set(full)
    for event, n in full.items():
        if event in SCAN_EVENTS:
            assert lean[event] <= n, event
        else:
            assert lean[event] == n, event
    assert lean["entries_scanned"] < full["entries_scanned"]
