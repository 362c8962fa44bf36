"""Tests for privileges and the interference relation (section 4)."""

import pickle

import pytest

from repro import READ, READ_WRITE, Privilege, PrivilegeError, interferes, \
    reduce
from repro.geometry.index_space import IndexSpace
from repro.privileges import PrivilegeKind
from repro.reductions import SUM
from repro.visibility.history import UNVALUED, HistoryEntry, scan_dependences


class TestConstruction:
    def test_constants(self):
        assert READ.is_read and not READ.is_write and not READ.is_reduce
        assert READ_WRITE.is_write and not READ_WRITE.is_read

    def test_reduce_factory(self):
        r = reduce("sum")
        assert r.is_reduce and r.redop is SUM
        assert reduce(SUM).redop is SUM

    def test_reduce_requires_operator(self):
        with pytest.raises(PrivilegeError):
            Privilege(PrivilegeKind.REDUCE)

    def test_non_reduce_rejects_operator(self):
        with pytest.raises(PrivilegeError):
            Privilege(PrivilegeKind.READ, SUM)

    def test_repr(self):
        assert repr(READ) == "read"
        assert repr(READ_WRITE) == "read-write"
        assert repr(reduce("sum")) == "reduce(sum)"


class TestInterference:
    """Section 4: the only non-interfering combinations are read/read and
    reduce_f/reduce_f with the same operator."""

    def test_read_read_ok(self):
        assert not interferes(READ, READ)

    def test_same_reduction_ok(self):
        assert not interferes(reduce("sum"), reduce("sum"))

    def test_different_reductions_interfere(self):
        assert interferes(reduce("sum"), reduce("max"))

    @pytest.mark.parametrize("other", [READ, reduce("sum"), READ_WRITE])
    def test_write_interferes_with_everything(self, other):
        assert interferes(READ_WRITE, other)
        assert interferes(other, READ_WRITE)

    def test_read_vs_reduce_interferes(self):
        assert interferes(READ, reduce("sum"))
        assert interferes(reduce("sum"), READ)

    def test_symmetry(self):
        privs = [READ, READ_WRITE, reduce("sum"), reduce("max")]
        for a in privs:
            for b in privs:
                assert interferes(a, b) == interferes(b, a)


#: Section 4's table over the four privileges below: the pairs that
#: commute (everything else interferes).
NAMES = ("read", "read-write", "reduce(sum)", "reduce(max)")
COMMUTING = {("read", "read"), ("reduce(sum)", "reduce(sum)"),
             ("reduce(max)", "reduce(max)")}


def fresh_and_restored():
    """Each privilege fresh and after a pickle round trip (checkpoints
    pickle whole runtimes, privileges included), with its table name."""
    fresh = [READ, READ_WRITE, reduce("sum"), reduce("max")]
    return [(name, p) for name, p in zip(NAMES, fresh)
            for p in (p, pickle.loads(pickle.dumps(p)))]


CASES = fresh_and_restored()
IDS = [f"{name}-{how}" for name, _ in CASES[::2]
       for how in ("fresh", "restored")]


class TestInterferenceSurvivesPickling:
    """The analysis inlines ``interferes`` as a test on the ``commutes``
    markers, so a restored privilege's marker must be the very object a
    fresh one carries: a marker that unpickles as a copy (a plain
    string) makes a restored read interfere with a fresh one."""

    @pytest.mark.parametrize("a_name,a", CASES, ids=IDS)
    @pytest.mark.parametrize("b_name,b", CASES, ids=IDS)
    def test_every_pair(self, a_name, a, b_name, b):
        want = (a_name, b_name) not in COMMUTING
        assert a.interferes(b) is want
        mark = a.commutes
        assert (not (mark is not None and b.commutes is mark)) is want
        # the one-entry history scan: ``b`` recorded, ``a`` accessing
        space = IndexSpace.from_range(0, 4)
        entry = HistoryEntry(b, space, None if b.is_read else UNVALUED, 7)
        deps: set[int] = set()
        scan_dependences(a, space, [entry], deps)
        assert deps == ({7} if want else set())
