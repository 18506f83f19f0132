"""n-ary means and the failure of the pair construction beyond n = 2.

The kernel N = (M / M(C_1^t, ..., C_n^t))^(1/(1-t)) and the tuple
K_i = C_i^t * N^(1-t) generalize verbatim to n arguments, and the tuple
still satisfies the invariance equation M(K_1, ..., K_n) = M.  Both run
``complement._kernel``, the code that builds the bivariate pairs, with
the n component values stacked into the one argument an n-ary evaluator
takes.  Each distinct component is evaluated once per call and fills
every row that names it, so a family of repeated components costs as
many evaluations as it has distinct ones.  Each tuple component is
``_component`` of the one kernel, and the escape ratio builds K_1 alone,
not the whole tuple.  What fails is mean-ness:
with M = C_1 = arithmetic and the remaining components geometric,
K_1(1, x, ..., x)/x grows toward n - 1, so for n >= 3 the construction
escapes the min/max envelope.
``counterexample_ratio`` measures that escape, and the verify module's
``check_nary_meanness`` scans for it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .complement import _base, _kernel
from .errors import DomainError, ParameterError
from .means import _floats, _patch, _positive_finite, _read, _unit

__all__ = [
    "NaryMean",
    "nary_arithmetic",
    "nary_geometric",
    "nary_general_base",
    "nary_invariant_tuple",
    "counterexample_ratio",
]


@dataclass(frozen=True)
class NaryMean:
    """Positive function of an n-vector, evaluated along axis 0.

    The evaluator accepts an array of shape (n,) or (n, m) and reduces
    the first axis, so batch evaluation stays vectorized.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    n: int
    label: str

    def __call__(self, xs):
        xs = _floats(xs, self.label)
        if xs.ndim == 0 or xs.shape[0] != self.n:
            raise DomainError(
                f"{self.label}: expected {self.n} arguments along the first axis"
            )
        if not _positive_finite(xs):
            raise DomainError(f"{self.label}: arguments must be positive reals")
        out = self.fn(xs)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def __repr__(self) -> str:
        return f"NaryMean({self.label}, n={self.n})"


def _check_arity(n: int) -> int:
    return _read(n, int, lambda n: n >= 2, "n-ary means need at least 2 arguments")


def _row_mean(xs):
    # the rows summed in order: np.mean sums a single vector of 8 or more
    # entries pairwise but an (n, m) stack row by row, so a lane would
    # depend on how the call is batched
    return reduce(np.add, xs) / len(xs)


def _nary_arithmetic_fn(xs):
    # the sum overflows once it passes DBL_MAX; only those lanes (an
    # infinite mean of finite arguments) are redone, as
    # max(x) * mean(x / max(x)), which stays in range
    with np.errstate(over="ignore"):
        m = _row_mean(xs)
    return _patch(m, np.isinf(m) & np.isfinite(xs).all(axis=0), _scaled_mean, *xs)


def _scaled_mean(*rows):
    xs = np.stack(rows)
    top = np.max(xs, axis=0)
    return top * _row_mean(xs / top)


def nary_arithmetic(n: int) -> NaryMean:
    n = _check_arity(n)
    return NaryMean(_nary_arithmetic_fn, n, f"arithmetic[{n}]")


def nary_geometric(n: int) -> NaryMean:
    n = _check_arity(n)
    # log-domain form: no overflow for products of large entries
    return NaryMean(lambda xs: np.exp(_row_mean(np.log(xs))), n,
                    f"geometric[{n}]")


def _nary_kernel(M: NaryMean, components: Sequence[NaryMean],
                 t: float) -> tuple[Callable, tuple[NaryMean, ...], float]:
    # validates the family; the kernel sees the n component values as one
    # stacked (n, ...) array, the single argument of the n-ary M.fn
    components = tuple(components)
    if len(components) != M.n:
        raise DomainError(
            f"expected {M.n} component means to match {M.label}, "
            f"got {len(components)}"
        )
    for C in components:
        if C.n != M.n:
            raise DomainError(
                f"component {C.label} has arity {C.n}, expected {M.n}"
            )
    t = _read(t, float, _unit, "n-ary base requires 0 < t < 1")

    # each distinct component runs once, in first-appearance order, and
    # its values fill every row that names it: the failing family's n - 1
    # identical geometric components cost one evaluation, not n - 1
    slots: dict[NaryMean, int] = {}
    rows = [slots.setdefault(C, len(slots)) for C in components]
    distinct = tuple(slots)

    def stacked(xs):
        values = [C.fn(xs) for C in distinct]
        return (np.stack([values[i] for i in rows]),)

    return _kernel(M.fn, stacked, t), components, t


def nary_general_base(M: NaryMean, components: Sequence[NaryMean],
                      t: float) -> NaryMean:
    """Kernel N = (M / M(C_1^t, ..., C_n^t))^(1/(1-t)); not a mean in general."""
    kernel, components, t = _nary_kernel(M, components, t)
    label = f"nt[{M.label}; {', '.join(C.label for C in components)}; t={t!r}]"
    return NaryMean(_base(kernel, t), M.n, label)


def _component(kernel: Callable, i: int) -> Callable:
    """The tuple component K_i = C_i^t * M / M(C_1^t, ..., C_n^t) of ``kernel``."""

    def fn(xs):
        powers, ratio, _ = kernel(xs)
        ratio *= powers[0][i]  # the ratio is fresh: K_i takes its place
        return ratio

    return fn


def nary_invariant_tuple(M: NaryMean, components: Sequence[NaryMean],
                         t: float) -> tuple[NaryMean, ...]:
    """The tuple K_i = C_i^t * M / M(C_1^t, ..., C_n^t).

    Always satisfies M(K_1, ..., K_n) = M; the K_i need not be means for
    n >= 3 (see counterexample_ratio).
    """
    kernel, components, t = _nary_kernel(M, components, t)
    return tuple(NaryMean(_component(kernel, i), M.n,
                          f"tuple.K{i + 1}[{M.label}; t={t!r}]")
                 for i in range(len(components)))


# the largest n the escape ratio takes: its cost grows like n (two
# distinct components, each reducing the n-vector row by row, and K_1
# alone of the tuple built); on a shared 2-core machine a call took
# 0.6-0.8 s at n = 100,000 (1.0-1.2 s when all n components were built)
_ESCAPE_MAX_N = 100_000


def counterexample_ratio(n: int, t: float, x: float) -> float:
    """Escape ratio K_1(1, x, ..., x) / max(1, x) for the failing family.

    Configuration: M and C_1 are the n-ary arithmetic mean, the remaining
    components geometric.  The ratio tends to n - 1 as x grows, so it
    exceeds 1 for n >= 3 and the tuple cannot consist of means.  At x = 1
    all arguments coincide and the ratio is exactly 1.  n is at most
    100,000, which keeps a call under about 1 s.
    """
    n = _read(n, int, lambda n: n >= 3, "the escape ratio needs n >= 3")
    if n > _ESCAPE_MAX_N:
        raise ParameterError(f"the escape ratio takes n <= {_ESCAPE_MAX_N}")
    t = _read(t, float, _unit, "the escape ratio requires 0 < t < 1")
    x = _read(x, float, _positive_finite, "the escape ratio requires x > 0")
    A = nary_arithmetic(n)
    G = nary_geometric(n)
    # K_1 alone: the other n - 1 components are never built
    first = _component(_nary_kernel(A, (A,) + (G,) * (n - 1), t)[0], 0)
    if x > sys.float_info.max / n:
        # K_1(1, x, ..., x) approaches (n - 1) x and would pass DBL_MAX;
        # K_1 is homogeneous, so evaluate K_1(1/x, 1, ..., 1) instead
        xs = np.ones(n)
        xs[0] = 1.0 / x
        return float(first(xs))
    xs = np.full(n, x)
    xs[0] = 1.0
    return float(first(xs)) / max(1.0, x)
