"""Counts, exactly: the pinned per-task cost-log table.

:mod:`tests.distributed.test_fingerprint_table` pins each cell's meter
*totals*; the machine simulator (Figs 12–17) consumes more than totals —
each task's own counter deltas, and its touch keys *in the order the
analysis sent them* (owner queues make the order matter).  An answer
served from a memo must therefore list its sets in the order a walk
would have met them.  Every row below is the SHA-256 of
:func:`cost_log` — init + 2 iterations at 4 pieces, counters and touches
per task, set and view uids masked out of the touch keys (they are
process-global) — recorded at commit ``df6dccd``, the last one that
re-walked the equivalence-set stores on every access, except the three
Warnock rows, recorded at commit ``bbdb8f1``, where Warnock's section
6.1 BVH walk became a charge.

:data:`COLD` pins ray casting where its first touch carves: 64 pieces at
init + 2 (the ledger's ``cold_wide`` shape) and 16 pieces at init + 4,
hashed the same way.  Those rows were recorded at commit ``e7f3d90``,
before the store answered its exact tests from a set-owner column.
"""

import hashlib

import pytest

from repro import ALGORITHMS, Runtime
from repro.apps import APPS

from tests.distributed.test_fingerprint_table import ITERATIONS, PIECES

#: ``(app, algorithm) -> sha256(repr(cost_log(app, algorithm)))``
PINNED = {
    ("circuit", "painter"):
        "1a8386aa27b7ad313636b346c6587645a35106b5792f6b5421d8859fac313365",
    ("circuit", "raycast"):
        "63906d1e65d440985e4e91c3deb0d25c685ba807b6e1a02a176d6186a136b8c4",
    ("circuit", "tree_painter"):
        "2917f2169aadf7e5252d0a15b92cc30d07528bc5219b2c9a40f12b07cd88fcda",
    ("circuit", "warnock"):
        "5ba8da77d826a913d5b0990ce7f380f2346dbd88ae9d231cab524d3a3283e2c6",
    ("circuit", "zbuffer"):
        "88d6095736cc11285fce9a2fce9fc1631555fa96b03a177b278e281ea255f2ae",
    ("pennant", "painter"):
        "1190a60d53aad52bd3f05ca3a7c859d37fec3f82affe9b8b6c935bc1b4280f36",
    ("pennant", "raycast"):
        "8c401d0ba2f7ce3623dce28ce3d52b1bf6522e2fc9769ce4542b600cecf6300a",
    ("pennant", "tree_painter"):
        "5613e64e6e5687773b8dfec5ea73242165a776d46cfbfbe407fefc7dd6ac495c",
    ("pennant", "warnock"):
        "84ca99f8fe7d8669f199f4ed6417cd163506802b5cd469cead1b1b98e4039934",
    ("pennant", "zbuffer"):
        "2b3ed2f4266cfd8462ecbe05369fd0e318c42683d982c37db917d14d9a4a01a3",
    ("stencil", "painter"):
        "1922d66f9579683e35524b9e19af91b7a2a688b94bbe71408dec00bd2c3887bc",
    ("stencil", "raycast"):
        "0ae80cd263bd7e7799a0dc76084370a98e45b2a1288561ee38a1829a3bc85351",
    ("stencil", "tree_painter"):
        "a2d6cea55894386df250fa3488b81141e6d1b8d0cff50840ddc69f2315c2ed8d",
    ("stencil", "warnock"):
        "a2c3215c23cac2cfe95c20cce6c8d1cdb493de0f4b02de8b81fbc62900c5ffeb",
    ("stencil", "zbuffer"):
        "c38fd3c3e96761ca8f889d08fb3f457d6427e0e189f636827ec7678d73b6aecb",
}

#: ``(app, pieces, iterations) -> sha256`` of the ray-casting cost log
COLD = {
    ("circuit", 64, 2):
        "c99d3d1d5a8b05419a9ae791facbe791f0e359a3d29afeb49ef463032b9d3ef5",
    ("pennant", 64, 2):
        "ebc724b957e1f433498c79b307f46f7bc1bdd7525a80e446f8d59223c79fe3f8",
    ("stencil", 64, 2):
        "cd32afa2db0f7d7172d19fd8e509697f28a32408c7c3ff07e34b9f67a64086af",
    ("circuit", 16, 4):
        "0e14c107750a0e10fbfdd9cfe4d6c28bbde893a2a9ea115bd440bafc6d3e51ab",
    ("pennant", 16, 4):
        "0f87a478624b6d8e6703aa712ac8bbf2bd4b09b7adfff5c89338e335711a6343",
    ("stencil", 16, 4):
        "5c8b249a1a520c14640422ad7b1f26fe127b28df375787dba1897127e2edbdcf",
}

CELLS = sorted((app, alg) for app in APPS for alg in ALGORITHMS)


def masked(key):
    """A touch key without its process-global uid: ``("eqset", uid, lo)``
    -> ``("eqset", lo)``, ``("view", uid)`` -> ``("view",)``."""
    if key[0] in ("eqset", "view"):
        return (key[0],) + tuple(int(k) for k in key[2:])
    return tuple(key)


def cost_log(app_name: str, algorithm: str, pieces: int = PIECES,
             iterations: int = ITERATIONS) -> list:
    app = APPS[app_name](pieces=pieces)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm,
                 record_costs=True)
    rt.replay(app.init_stream())
    for _ in range(iterations):
        rt.replay(app.iteration_stream())
    return [(sorted(cost.counters.items()),
             [masked(key) for key in cost.touches])
            for cost in rt.cost_log]


def test_table_covers_every_cell():
    assert sorted(PINNED) == CELLS


@pytest.mark.parametrize("app_name,algorithm", CELLS)
def test_cost_log_matches_pinned(app_name, algorithm):
    log = cost_log(app_name, algorithm)
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == PINNED[app_name, algorithm], (
        f"{app_name}/{algorithm}: per-task counters or touch order "
        f"changed; {len(log)} tasks, first {log[0]}")


@pytest.mark.parametrize("app_name,pieces,iterations", sorted(COLD))
def test_cold_raycast_cost_log_matches_pinned(app_name, pieces, iterations):
    log = cost_log(app_name, "raycast", pieces, iterations)
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == COLD[app_name, pieces, iterations], (
        f"{app_name} at {pieces} pieces, init + {iterations}: ray-casting "
        f"per-task counters or touch order changed; {len(log)} tasks")
