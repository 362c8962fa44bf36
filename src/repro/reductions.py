"""Reduction operators with identities (paper section 4).

A reduction operator ``f`` must have an identity ``0_f`` so the runtime can
accumulate *partial* reductions lazily: a reducing task materializes an
identity-filled buffer, folds into it locally, and the runtime only blends
the accumulated buffer into the real data when a later read needs it
(section 5, "lazy application of reductions").

Operators are registered by name; the built-ins cover the operators the
benchmark codes use (Circuit: ``sum``; Pennant: ``sum`` and ``min``; plus
``max``/``prod``/``bitor``/``bitand`` for test coverage of multiple
distinct operators interacting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.errors import PrivilegeError

# Vectorized fold: fold(current, contribution) -> combined
FoldFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ReductionOp:
    """A named reduction operator with an identity element.

    Operators are registry singletons (and unpickle as themselves), so
    one equals only itself and hashes by identity, in C: an operator is
    the ``commutes`` marker of its reduction privileges, which the tree
    painter's privilege summaries hash on every launch.

    Attributes
    ----------
    name:
        Registry key, also used in privilege syntax (``reduce('sum')``).
    fold:
        Vectorized binary fold ``(current, contribution) -> combined``.
    identity:
        Scalar identity ``0_f`` with ``fold(x, identity) == x``.
    commutative:
        Recorded for documentation; the runtime never reorders folds of a
        single operator (paper footnote 1 leaves such optimizations out of
        scope), so correctness never relies on this flag.
    """

    name: str
    fold: FoldFn
    identity: float | int
    commutative: bool = True

    def identity_array(self, n: int, dtype: np.dtype | type = np.float64) -> np.ndarray:
        """An ``n``-element buffer filled with the identity.

        For integer dtypes an infinite identity (min/max) saturates to the
        dtype's representable extreme, which is the correct identity within
        that dtype.
        """
        dtype = np.dtype(dtype)
        fill = self.identity
        if np.issubdtype(dtype, np.integer) and isinstance(fill, float) \
                and np.isinf(fill):
            info = np.iinfo(dtype)
            fill = info.max if fill > 0 else info.min
        out = np.empty(n, dtype=dtype)
        out.fill(fill)
        return out

    def __repr__(self) -> str:
        return f"ReductionOp({self.name!r})"

    def __reduce__(self):
        # Fold functions are often lambdas, which cannot pickle; operators
        # are registry singletons, so pickle by name (required for the
        # distributed checkpoint/restore path, which pickles analysis
        # runtimes whose privileges reference these operators).
        return (get_reduction, (self.name,))


_REGISTRY: Dict[str, ReductionOp] = {}


def register_reduction(op: ReductionOp, *, replace: bool = False) -> ReductionOp:
    """Add a reduction operator to the global registry.

    Raises :class:`~repro.errors.PrivilegeError` on duplicate names unless
    ``replace=True``.
    """
    if op.name in _REGISTRY and not replace:
        raise PrivilegeError(f"reduction operator {op.name!r} already registered")
    _REGISTRY[op.name] = op
    return op


def get_reduction(name: str) -> ReductionOp:
    """Look up a registered reduction operator by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PrivilegeError(
            f"unknown reduction operator {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_reductions() -> tuple[str, ...]:
    """Names of all registered reduction operators."""
    return tuple(sorted(_REGISTRY))


SUM = register_reduction(ReductionOp("sum", lambda a, b: a + b, 0))
PROD = register_reduction(ReductionOp("prod", lambda a, b: a * b, 1))
MIN = register_reduction(ReductionOp("min", np.minimum, np.inf))
MAX = register_reduction(ReductionOp("max", np.maximum, -np.inf))
BITOR = register_reduction(
    ReductionOp("bitor", lambda a, b: np.bitwise_or(a.astype(np.int64),
                                                    b.astype(np.int64)), 0)
)
BITAND = register_reduction(
    ReductionOp("bitand", lambda a, b: np.bitwise_and(a.astype(np.int64),
                                                      b.astype(np.int64)), -1)
)
