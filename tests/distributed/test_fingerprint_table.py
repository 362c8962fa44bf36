"""Bit-identical before and after: the pinned fingerprint table.

Every row was recorded at commit ``a4c484e`` — the last one that still
carried the columnar/geometry-cache/precedence switches, all at their
defaults — except the analysis half of the three Warnock rows, recorded
at commit ``bbdb8f1``, where Warnock's section 6.1 BVH walk became a
charge (their graph half did not move).  Both were recorded by
:func:`serial_fingerprints` below: init + 2 iterations of
each application (4 pieces) through a serial :class:`Runtime`, hashed as
``(analysis_fingerprint, graph_fingerprint)``.  The analysis fingerprint
covers the dependence graph, every algorithm's structure tokens and the
meter totals, so a scan, refinement or cache change that alters any
observable count lands here; thread and process replicas must agree with
the serial row.
"""

import pytest

from repro import ALGORITHMS, Runtime
from repro.apps import APPS
from repro.distributed import BACKENDS, ShardedRuntime
from repro.distributed.verify import analysis_fingerprint, graph_fingerprint
from repro.runtime import TaskStream

PIECES = 4
ITERATIONS = 2

#: ``(app, algorithm) -> (analysis_fingerprint, graph_fingerprint)``
PINNED = {
    ("circuit", "painter"): (
        "35521d06a8fc5d4e3b3c6a40e32833d77d1ba0053052cb51c697d602a71cdca1",
        "3655de55988660e51c467c43749a2aa9051df58e413d44552ab602a5f3c9d9c2"),
    ("circuit", "raycast"): (
        "068bcf1397073a9b3b4a850d53683489a8da1bbd8842e27768be32b0ee7153ac",
        "9b59e96f53ef663b3781fedfa2f56303d3e0bc5e812e22967cb719736b2eddf4"),
    ("circuit", "tree_painter"): (
        "b20acefe715892c2931cf39bd18ac93d1a29b3b7717095b03a2388cdad80c4e5",
        "edf9f626bbddc843e1771066f7598a626f5059bd6935d727bf091c7f1606f38e"),
    ("circuit", "warnock"): (
        "ee0647938facbda5d3f4927050ca55058acb11c600bbc3b1fd2d54af7da2fb20",
        "9b59e96f53ef663b3781fedfa2f56303d3e0bc5e812e22967cb719736b2eddf4"),
    ("circuit", "zbuffer"): (
        "51001246994114c0c1ae53204b578b93a67c4ef7adf412e56b97ffb11632d180",
        "9b59e96f53ef663b3781fedfa2f56303d3e0bc5e812e22967cb719736b2eddf4"),
    ("pennant", "painter"): (
        "c1b9250791d4642501b6b3b048ba1c6bf97a66d4e8402d5e542fe432aac28250",
        "7c4868ea5af09be0b7e1751591fc65a7d749368d946dbca8b7770846d05429fa"),
    ("pennant", "raycast"): (
        "abb77d554128fc0be12993c3019245b1e5d94a89f662dd205f2acc8a2fb72584",
        "823debc7714ffd0d2070e95c75e04dce3328737cd76cbad08ff0dbe7688d5c4f"),
    ("pennant", "tree_painter"): (
        "a756cd8a655e278e9df77adfa524e61abb7d12a8049f65e1b8bfacf00454e0f6",
        "823debc7714ffd0d2070e95c75e04dce3328737cd76cbad08ff0dbe7688d5c4f"),
    ("pennant", "warnock"): (
        "341ed349e686a331b003d321e7be016d3db88c4dc8f2a9c7d1c53eee0d293d15",
        "823debc7714ffd0d2070e95c75e04dce3328737cd76cbad08ff0dbe7688d5c4f"),
    ("pennant", "zbuffer"): (
        "deeaab91a2a88608446498ea017f43645969ba2878b7191b689886ac07a00c64",
        "823debc7714ffd0d2070e95c75e04dce3328737cd76cbad08ff0dbe7688d5c4f"),
    ("stencil", "painter"): (
        "cf4886d52b01d68f81981697fa5b2f574c4a5ab8e4818321297da8bdf752c263",
        "e03c48bc4362f173b1c697bf5475d754ac38df7259b5c8adeba85f88a3b7e88b"),
    ("stencil", "raycast"): (
        "89c3a0a30cfd48d45eb69c31aec797484e9cff8dd4a0d7e5d57221eb0f4858ea",
        "b79f1ca5d38b473ffe84d2c070ddf2276f1913543c0a3b2b6ce62634b660ce30"),
    ("stencil", "tree_painter"): (
        "6d19b225015ab0a7e2b0ffb2b079cd42ab9582db9edd17dc90dd0d67461e17cb",
        "b79f1ca5d38b473ffe84d2c070ddf2276f1913543c0a3b2b6ce62634b660ce30"),
    ("stencil", "warnock"): (
        "2b25eeceb25de22ac28b85884643472d1d2ebb6033bf4bc390c2116e271c5374",
        "b79f1ca5d38b473ffe84d2c070ddf2276f1913543c0a3b2b6ce62634b660ce30"),
    ("stencil", "zbuffer"): (
        "2964099ca1bdeb0b1754d2387d3987c90674e06b4caa0cf816629190ed73f0ff",
        "b79f1ca5d38b473ffe84d2c070ddf2276f1913543c0a3b2b6ce62634b660ce30"),
}

CELLS = sorted(PINNED)


def streams(app):
    return [app.init_stream()] + [app.iteration_stream()
                                  for _ in range(ITERATIONS)]


def serial_fingerprints(app_name: str, algorithm: str) -> tuple[str, str]:
    app = APPS[app_name](pieces=PIECES)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm)
    for stream in streams(app):
        rt.replay(stream)
    return analysis_fingerprint(rt), graph_fingerprint(rt.graph)


def test_table_covers_every_cell():
    assert set(PINNED) == {(a, g) for a in APPS for g in ALGORITHMS}


@pytest.mark.parametrize("app_name,algorithm", CELLS)
def test_serial_matches_pinned(app_name, algorithm):
    assert serial_fingerprints(app_name, algorithm) == \
        PINNED[app_name, algorithm]


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
@pytest.mark.parametrize("app_name,algorithm", CELLS)
def test_replicas_match_serial(app_name, algorithm, backend):
    app = APPS[app_name](pieces=PIECES)
    whole = TaskStream()
    for stream in streams(app):
        whole.extend_from(stream)
    with ShardedRuntime(app.tree, app.initial, shards=2,
                        algorithm=algorithm, backend=backend) as srt:
        reports = srt.analyze(whole)
        graph = graph_fingerprint(srt.graph)
    want = PINNED[app_name, algorithm]
    assert {r.fingerprint for r in reports} == {want[0]}
    assert graph == want[1]
