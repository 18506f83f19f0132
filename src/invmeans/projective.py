"""Selection means: return x on a chosen off-diagonal set, y elsewhere.

A ConeSet is a membership predicate on pairs of positive reals.  Its
selection mean P picks the first argument exactly on members.  Two
structural facts drive the flags: P is symmetric precisely when the set
is asymmetric (contains exactly one of (x,y), (y,x) off the diagonal),
and homogeneous precisely when the set is a cone (closed under positive
scaling).  Both are declarations here, spot-checked by the verify module,
which also scans the exchange property of ``_selections``: the one
selection evaluator, run by every selection mean and by the log and xy
pairs.

Five sets ship built in: "full" and "empty" (the coordinate projections),
"lower" {x < y} and "upper" {x > y} (min and max), and "mixed", an
asymmetric non-cone witness that flips its rule across the line x + y = 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidMeanSpec
from .means import Mean

__all__ = [
    "ConeSet",
    "BUILTIN_CONE_NAMES",
    "builtin_cone",
    "complement_cone",
    "projective_mean",
]


@dataclass(frozen=True)
class ConeSet:
    """Membership predicate over positive pairs with declared structure.

    ``membership`` must be vectorized: given broadcastable positive arrays
    it returns a boolean array.  Membership on the diagonal is immaterial;
    the selection mean returns x there either way.  The declared flags are
    claims (asymmetric set, cone set) that downstream constructions
    translate into mean flags; they are never proven, only sampled.
    """

    membership: Callable[[np.ndarray, np.ndarray], np.ndarray]
    declared_asymmetric: bool
    declared_cone: bool
    name: str = ""


def _full_fn(x, y):
    return np.ones(np.broadcast(x, y).shape, dtype=bool)


def _empty_fn(x, y):
    return np.zeros(np.broadcast(x, y).shape, dtype=bool)


def _mixed_fn(x, y):
    # rule flips across x + y = 2: not scale invariant, still asymmetric
    return np.where(x + y < 2.0, np.less(x, y), np.greater(x, y))


_BUILTIN: dict[str, ConeSet] = {
    "full": ConeSet(_full_fn, declared_asymmetric=False, declared_cone=True, name="full"),
    "empty": ConeSet(_empty_fn, declared_asymmetric=False, declared_cone=True, name="empty"),
    "lower": ConeSet(np.less, declared_asymmetric=True, declared_cone=True, name="lower"),
    "upper": ConeSet(np.greater, declared_asymmetric=True, declared_cone=True, name="upper"),
    "mixed": ConeSet(_mixed_fn, declared_asymmetric=True, declared_cone=False, name="mixed"),
}

BUILTIN_CONE_NAMES: tuple[str, ...] = tuple(_BUILTIN)

# complements of the built-in sets that are themselves built in
_COMPLEMENT_NAME = {"full": "empty", "empty": "full", "lower": "upper", "upper": "lower"}

# selection means known monotone: exactly the four catalog cones
# (proj1, proj2, min, max); no general characterization is attempted
_MONOTONE_CONES = frozenset(_COMPLEMENT_NAME)


def builtin_cone(name: str) -> ConeSet:
    """Look up a built-in cone set by its CLI name."""
    try:
        return _BUILTIN[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise InvalidMeanSpec(
            f"unknown cone name {name!r}; expected one of {', '.join(_BUILTIN)}"
        ) from None


def complement_cone(A: ConeSet) -> ConeSet:
    """Negate membership; asymmetry and cone structure both survive."""
    base = A.membership

    def negated(x, y):
        return np.logical_not(base(x, y))

    name = _COMPLEMENT_NAME.get(A.name, f"not-{A.name}" if A.name else "")
    return ConeSet(
        negated,
        declared_asymmetric=A.declared_asymmetric,
        declared_cone=A.declared_cone,
        name=name,
    )


def _selections(A: ConeSet, x, y):
    """(P_A(x, y), P_{A'}(x, y)) from one membership test of A."""
    member = np.asarray(A.membership(x, y), dtype=bool)
    return np.where(member, x, y), np.where(member, y, x)


def projective_mean(A: ConeSet) -> Mean:
    """Selection mean of A: x on members, y elsewhere, x on the diagonal.

    Flags follow the declarations: symmetric iff the set is declared
    asymmetric, homogeneous iff declared a cone.  The monotone flag is set
    only for the four catalog cone names; elsewhere it stays False.
    """

    def fn(x, y):
        return _selections(A, x, y)[0]

    known = f"proj:{A.name}" if A.name in _BUILTIN else None
    return Mean(
        fn,
        label=known or f"proj:{A.name or '<anonymous>'}",
        symmetric=A.declared_asymmetric,
        homogeneous=A.declared_cone,
        monotone=A.name in _MONOTONE_CONES,
        strict=False,
        spec=known,
    )
