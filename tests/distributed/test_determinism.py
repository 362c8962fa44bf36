"""Differential determinism: the regression net for the parallel backends.

DCR requires every replica of the analysis to reach bit-identical
conclusions no matter how many replicas run or where they run.  These
tests pin that down differentially: for every coherence algorithm, the
same program is analyzed at shard counts {1, 2, 4, 8} on every backend,
and *every* resulting analysis fingerprint (dependence graph +
equivalence-set structure + metered refinement trace, SHA-256 over a
canonical encoding) must be one single value.  Any iteration-order or
cross-process nondeterminism an algorithm picks up in the future lands
here first.
"""

import pytest

from repro import ALGORITHMS
from repro.distributed import BACKENDS, ShardedRuntime

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

SHARD_COUNTS = (1, 2, 4, 8)


def _fingerprints(algo: str, shards: int, backend: str) -> set[str]:
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=shards,
                        algorithm=algo, backend=backend) as srt:
        reports = srt.analyze(fig1_stream(tree, P, G, 2))
    assert len(reports) == shards
    return {r.fingerprint for r in reports}


class TestDifferentialDeterminism:
    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_identical_across_shard_counts_and_backends(self, algo):
        """One program, one algorithm → one fingerprint, regardless of
        shard count (1/2/4/8) and execution backend."""
        seen: set[str] = set()
        for backend in BACKENDS:
            for shards in SHARD_COUNTS:
                seen |= _fingerprints(algo, shards, backend)
                assert len(seen) == 1, (
                    f"{algo} diverged at {shards} shards on the {backend} "
                    f"backend: {sorted(seen)}")

    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_application_stream_identical_across_backends(self, algo):
        """Same property on a real application stream (stencil), which
        exercises multi-field trees and reduction privileges."""
        from repro.apps import make_app, session_stream

        seen: set[str] = set()
        for backend in BACKENDS:
            app = make_app("stencil", 4)
            stream = session_stream(app, 1)
            with ShardedRuntime(app.tree, app.initial, shards=4,
                                algorithm=algo, backend=backend) as srt:
                seen |= {r.fingerprint for r in srt.analyze(stream)}
            assert len(seen) == 1, (algo, backend, sorted(seen))
