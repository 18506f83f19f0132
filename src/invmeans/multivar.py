"""n-ary means and the failure of the pair construction beyond n = 2.

The kernel N = (M / M(C_1^t, ..., C_n^t))^(1/(1-t)) and the tuple
K_i = C_i^t * N^(1-t) generalize verbatim to n arguments, and the tuple
still satisfies the invariance equation M(K_1, ..., K_n) = M.  Both run
``complement._kernel``, the code that builds the bivariate pairs, with
the n component values stacked into the one argument an n-ary evaluator
takes.  What fails is mean-ness: with M = C_1 = arithmetic and the
remaining components geometric, K_1(1, x, ..., x)/x grows toward n - 1,
so for n >= 3 the construction escapes the min/max envelope.
``counterexample_ratio`` measures that escape.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .complement import _kernel
from .errors import DomainError, ParameterError
from .means import _positive_finite, _pow
from .verify import DEFAULT_CONFIG, ScanConfig, ScanReport, _scan

__all__ = [
    "NaryMean",
    "nary_arithmetic",
    "nary_geometric",
    "nary_general_base",
    "nary_invariant_tuple",
    "counterexample_ratio",
    "check_nary_meanness",
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
        xs = np.asarray(xs, dtype=float)
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
    n = int(n)
    if n < 2:
        raise ParameterError("n-ary means need at least 2 arguments")
    return n


def nary_arithmetic(n: int) -> NaryMean:
    n = _check_arity(n)
    return NaryMean(lambda xs: np.mean(xs, axis=0), n, f"arithmetic[{n}]")


def nary_geometric(n: int) -> NaryMean:
    n = _check_arity(n)
    # log-domain form: no overflow for products of large entries
    return NaryMean(lambda xs: np.exp(np.mean(np.log(xs), axis=0)), n,
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
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ParameterError("n-ary base requires 0 < t < 1")

    def stacked(xs):
        return (np.stack([C.fn(xs) for C in components]),)

    return _kernel(M.fn, stacked, t), components, t


def nary_general_base(M: NaryMean, components: Sequence[NaryMean],
                      t: float) -> NaryMean:
    """Kernel N = (M / M(C_1^t, ..., C_n^t))^(1/(1-t)); not a mean in general."""
    kernel, components, t = _nary_kernel(M, components, t)
    q = 1.0 / (1.0 - t)

    def fn(xs):
        return _pow(kernel(xs)[1], q)

    label = f"nt[{M.label}; {', '.join(C.label for C in components)}; t={t!r}]"
    return NaryMean(fn, M.n, label)


def nary_invariant_tuple(M: NaryMean, components: Sequence[NaryMean],
                         t: float) -> tuple[NaryMean, ...]:
    """The tuple K_i = C_i^t * M / M(C_1^t, ..., C_n^t).

    Always satisfies M(K_1, ..., K_n) = M; the K_i need not be means for
    n >= 3 (see counterexample_ratio).
    """
    kernel, components, t = _nary_kernel(M, components, t)

    def make(i: int) -> NaryMean:
        def fn(xs):
            powers, ratio, _ = kernel(xs)
            return powers[0][i] * ratio

        label = f"tuple.K{i + 1}[{M.label}; t={t!r}]"
        return NaryMean(fn, M.n, label)

    return tuple(make(i) for i in range(len(components)))


def counterexample_ratio(n: int, t: float, x: float) -> float:
    """Escape ratio K_1(1, x, ..., x) / max(1, x) for the failing family.

    Configuration: M and C_1 are the n-ary arithmetic mean, the remaining
    components geometric.  The ratio tends to n - 1 as x grows, so it
    exceeds 1 for n >= 3 and the tuple cannot consist of means.  At x = 1
    all arguments coincide and the ratio is exactly 1.
    """
    n = int(n)
    if n < 3:
        raise ParameterError("the escape ratio needs n >= 3")
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ParameterError("the escape ratio requires 0 < t < 1")
    x = float(x)
    if not _positive_finite(x):
        raise ParameterError("the escape ratio requires x > 0")
    A = nary_arithmetic(n)
    G = nary_geometric(n)
    first = nary_invariant_tuple(A, (A,) + (G,) * (n - 1), t)[0]
    xs = np.full(n, x)
    xs[0] = 1.0
    return float(first(xs)) / max(1.0, x)


def check_nary_meanness(F: NaryMean, cfg: ScanConfig | None = None) -> ScanReport:
    """Scan min <= F <= max over the ray (1, x, ..., x) plus random vectors.

    The ray is where the failing family escapes, so it is sampled densely
    (points_per_axis**2 values of x over the domain); the random
    supplement draws 10x that many log-uniform vectors.  Witness layout:
    (x_1, ..., x_n, F(x)).
    """
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = cfg.domain
    m = cfg.points_per_axis ** 2
    ray = np.ones((F.n, m))
    ray[1:, :] = np.geomspace(lo, hi, m)
    rng = np.random.default_rng(cfg.seed)
    rand = np.exp(rng.uniform(np.log(lo), np.log(hi), (F.n, 10 * m)))
    xs = np.concatenate([ray, rand], axis=1)

    def measure(*rows):
        v = np.asarray(F.fn(xs), dtype=float)
        mn = xs.min(axis=0)
        mx = xs.max(axis=0)
        return np.maximum(mn - v, v - mx) / mx, rows + (v,)

    return _scan(cfg.rel_tol, tuple(xs), measure,
                 lambda *row: F.fn(np.asarray(row, dtype=float)))
