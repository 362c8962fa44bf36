"""Differential harness: the provenance ledger is observationally
invisible.

Analysis fingerprints hash the dependence graph, the equivalence-set
structure tokens, *and* the cost-meter counter snapshot.  These tests
run the same program with the ledger enabled and disabled — for every
coherence algorithm, plain and sharded across every backend — and
require bit-identical fingerprints.  Any ledger hook that touches a
:class:`~repro.visibility.meter.CostMeter`, perturbs analysis control
flow, or changes an algorithm's interning order lands here.
"""

import pytest

from repro import ALGORITHMS, Runtime
from repro.distributed import BACKENDS, ShardedRuntime
from repro.distributed.verify import analysis_fingerprint
from repro.obs import provenance as prov
from repro.obs import tracer as obs

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


def _with_ledger(enabled: bool, fn):
    """Run ``fn`` under a fresh tracer, recording witnesses or only
    spans; return (result, the witness view of what it recorded)."""
    tracer = obs.Tracer(witnesses=enabled)
    previous = obs.set_tracer(tracer)
    try:
        result = fn()
    finally:
        obs.set_tracer(previous)
    return result, prov.Witnesses(tracer.snapshot())


def _plain_fingerprint(algo: str) -> str:
    tree, P, G = make_fig1_tree()
    rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
    rt.replay(fig1_stream(tree, P, G, 2))
    return analysis_fingerprint(rt)


def _sharded_fingerprints(algo: str, backend: str, shards: int = 3) -> set:
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=shards,
                        algorithm=algo, backend=backend) as srt:
        reports = srt.analyze(fig1_stream(tree, P, G, 2))
    return {r.fingerprint for r in reports}


class TestProvenanceDifferential:
    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_plain_runtime_bit_identical(self, algo):
        recorded, led = _with_ledger(True, lambda: _plain_fingerprint(algo))
        assert len(led) > 0, \
            "the ledger never recorded — the differential proves nothing"
        silent, off_led = _with_ledger(
            False, lambda: _plain_fingerprint(algo))
        assert len(off_led) == 0
        assert recorded == silent, \
            f"{algo}: provenance recording changed the analysis fingerprint"

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_sharded_bit_identical(self, algo, backend):
        recorded, led = _with_ledger(
            True, lambda: _sharded_fingerprints(algo, backend))
        assert len(recorded) == 1, (algo, backend, sorted(recorded))
        # every replica contributed shard-tagged records
        assert {r.shard for r in led.records} == {0, 1, 2}, \
            (algo, backend)
        silent, _ = _with_ledger(
            False, lambda: _sharded_fingerprints(algo, backend))
        assert recorded == silent, (algo, backend)
