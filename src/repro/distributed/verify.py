"""Deterministic-merge verification for replicated analyses.

DCR (section 4 of the paper, and Bauer et al., PPoPP 2021) only works if
every control-replicated shard independently reproduces an *identical*
dependence analysis.  When the per-shard analyses run concurrently
(:mod:`repro.distributed.backends`) that obligation becomes the merge
step's correctness condition, so it is enforced, not assumed: each shard
hashes its dependence graph *and* its equivalence-set refinement state
(via :meth:`~repro.visibility.base.CoherenceAlgorithm.structure_tokens`
plus the cost-meter event counts, which record the refinement trace —
``eqsets_split``, ``eqsets_coalesced``, ...), the merge compares the
fingerprints, and a mismatch fails fast with a structured per-task diff
rather than a silent wrong answer.

Fingerprints are SHA-256 over a canonical byte encoding, so they are
stable across processes, machines and Python hash randomization — the
same digests back the differential determinism tests that run one
analysis at several shard counts and backends and require bit-identical
hashes.  The bulk of that encoding (dependence rows, equivalence sets) is
emitted straight to bytes rather than built as tuples, and each verified
state is hashed once: a checkpoint reuses the verified window's digests;
a restore hashes fresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import MachineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.context import Runtime
    from repro.runtime.dependence import DependenceGraph


class Encoded(bytes):
    """A token already in :func:`_encode`'s bytes, emitted verbatim (see
    :func:`~repro.visibility.eqset.set_tokens`)."""


def _encode(token, emit: Callable[[bytes], object]) -> None:
    """Emit one (possibly nested) token's bytes, type-tagged so that e.g.
    the int 1 and the string "1" cannot collide.  Exact types take fast
    paths; the rest take the spec's ``isinstance`` branches (in any order:
    no class derives from two of bytes, str, int, tuple and list).  An
    exact :class:`Encoded` is emitted as it is, any other bytes as bytes."""
    kind = type(token)
    if kind is int:
        emit(b"i%d" % token)
    elif kind is tuple or kind is list or isinstance(token, (tuple, list)):
        emit(b"t" + len(token).to_bytes(8, "little"))
        for item in token:
            if type(item) is int:
                emit(b"i%d" % item)
            else:
                _encode(item, emit)
    elif kind is Encoded:
        emit(token)
    elif kind is str or isinstance(token, str):
        _encode(token.encode("utf-8"), emit)
    elif isinstance(token, bytes):
        emit(b"b" + len(token).to_bytes(8, "little") + token)
    elif token is None:
        emit(b"n")
    elif kind is bool:
        emit(b"B1" if token else b"B0")
    elif isinstance(token, int):
        emit(b"i" + str(token).encode())
    else:
        _encode(repr(token), emit)


def encoded(token) -> bytes:
    """The bytes :func:`_encode` gives ``token``."""
    out: list[bytes] = []
    _encode(token, out.append)
    return b"".join(out)


#: The format of a tuple of ``n`` ints, built once for short tuples: a
#: bounds pair, an empty id set, most dependence rows.
_INT_TUPLES = [b"t" + n.to_bytes(8, "little") + b"i%d" * n for n in range(16)]


def int_tuple(values) -> bytes:
    """The bytes :func:`_encode` gives a tuple of ``int`` values."""
    n = len(values)
    if n < len(_INT_TUPLES):
        return _INT_TUPLES[n] % tuple(values)
    # a length byte of 37 is a "%": escaped
    return (b"t" + n.to_bytes(8, "little").replace(b"%", b"%%")
            + b"i%d" * n) % tuple(values)


def fingerprint_tokens(*tokens) -> str:
    """SHA-256 hex digest of a canonical encoding of nested tokens."""
    h = hashlib.sha256()
    for token in tokens:
        _encode(token, h.update)
    return h.hexdigest()


def graph_fingerprint(graph: "DependenceGraph", start: int = 0,
                      count: Optional[int] = None) -> str:
    """Digest of one dependence-graph section.

    ``start``/``count`` select the tasks of one executed stream so that
    repeated ``execute`` calls can be verified incrementally (``count``
    ``None``: through the last task); the ids and their sorted dependence
    sets are hashed in program order.
    """
    deps = graph._deps
    if count is None:
        ids = sorted(t for t in deps if t >= start)
    else:
        ids = [t for t in range(start, start + count) if t in deps]
    # ``fingerprint_tokens`` of the list of ``(t, tuple(sorted(deps)))``
    # rows, streamed: a list of every row would set a deep history's peak
    # memory
    h = hashlib.sha256(b"t" + len(ids).to_bytes(8, "little"))
    for t in ids:
        h.update(b"t\2\0\0\0\0\0\0\0i%d%b" % (t, int_tuple(sorted(deps[t]))))
    return h.hexdigest()


def structure_fingerprint(runtime: "Runtime") -> str:
    """Digest of a runtime's analysis structure and refinement trace.

    Combines every field's :meth:`structure_tokens` with the cost meter's
    event counts (the counts of ``eqsets_split``/``eqsets_coalesced``/...
    are a digest of the refinement *trace*, not just its final state).
    """
    per_field = [runtime.algorithm_for(name).structure_tokens()
                 for name in runtime.tree.field_space.names]
    counters = tuple(sorted(runtime.meter.snapshot().items()))
    return fingerprint_tokens(per_field, counters)


def analysis_fingerprint(runtime: "Runtime", start: int = 0,
                         count: Optional[int] = None,
                         structure: Optional[str] = None) -> str:
    """The full per-shard digest the merge step compares (``structure``:
    the runtime's :func:`structure_fingerprint`, if already computed)."""
    return fingerprint_tokens(graph_fingerprint(runtime.graph, start, count),
                              structure or structure_fingerprint(runtime))


def fields_fingerprint(fields) -> str:
    """Digest of a ``{name: ndarray}`` mapping of field values.

    Used by the differential tests to compare distributed state against
    the sequential reference without a field-by-field array comparison.
    """
    import numpy as np

    return fingerprint_tokens(
        [(name, np.asarray(fields[name]).tobytes())
         for name in sorted(fields)])


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardReport:
    """One shard's view of an analyzed stream, as returned by a backend.

    ``seconds`` is the wall-clock analysis time measured where the replica
    lives (in-process or inside a worker); ``shipped_bytes`` counts the
    pickled payload that moved to reach it (0 for in-process replicas).
    """

    shard: int
    fingerprint: str
    seconds: float
    shipped_bytes: int = 0


@dataclass(frozen=True)
class TaskDivergence:
    """One task two shards disagree on."""

    task_id: int
    shard: int
    reference_deps: tuple[int, ...]
    shard_deps: tuple[int, ...]

    def __str__(self) -> str:
        return (f"task {self.task_id}: shard 0 -> "
                f"{list(self.reference_deps)}, shard {self.shard} -> "
                f"{list(self.shard_deps)}")


class DeterminismError(MachineError):
    """Raised when replicated analyses diverge (DCR contract violation).

    Carries the structured evidence: which shards' fingerprints differ
    and, when dependence dumps are available, the exact per-task diff.
    """

    def __init__(self, message: str,
                 mismatched_shards: Sequence[int] = (),
                 divergences: Sequence[TaskDivergence] = ()) -> None:
        super().__init__(message)
        self.mismatched_shards = tuple(mismatched_shards)
        self.divergences = tuple(divergences)


def diff_dependences(reference: Sequence[Sequence[int]],
                     shard: int,
                     candidate: Sequence[Sequence[int]],
                     base: int) -> list[TaskDivergence]:
    """Per-task diff between two shards' dependence dumps.

    Both dumps list, for the ``len(reference)`` tasks starting at global
    task id ``base``, the sorted dependences each shard recorded.
    """
    out: list[TaskDivergence] = []
    for k, (a, b) in enumerate(zip(reference, candidate)):
        if tuple(a) != tuple(b):
            out.append(TaskDivergence(base + k, shard, tuple(a), tuple(b)))
    return out


def check_reports(reports: Sequence[ShardReport],
                  dump: Callable[[int], Sequence[Sequence[int]]],
                  base: int) -> None:
    """The deterministic-merge step: compare every shard's fingerprint
    against shard 0's and fail fast with a structured diff on divergence.

    ``dump(shard)`` fetches a shard's per-task dependence lists for the
    just-analyzed stream — only called on mismatch, so the happy path
    ships fingerprints alone.
    """
    reference = reports[0]
    mismatched = [r.shard for r in reports[1:]
                  if r.fingerprint != reference.fingerprint]
    if not mismatched:
        return
    reference_deps = dump(reference.shard)
    divergences: list[TaskDivergence] = []
    for shard in mismatched:
        divergences.extend(
            diff_dependences(reference_deps, shard, dump(shard), base))
    detail = "; ".join(str(d) for d in divergences[:8])
    if len(divergences) > 8:
        detail += f"; ... {len(divergences) - 8} more"
    if not divergences:
        detail = ("dependence graphs agree — the analyses diverged in "
                  "equivalence-set structure or metered refinement trace")
    raise DeterminismError(
        f"control replication broken: shard(s) {mismatched} disagree with "
        f"shard 0 — the analysis is not deterministic ({detail})",
        mismatched_shards=mismatched, divergences=divergences)
