"""Constructions of complementary mean pairs (K, L) with M(K, L) = M.

Every construction on the positive half-line is one kernel: given a
symmetric, homogeneous, monotone target M, component means c, d and a
parameter t, it returns ((c^t, d^t), M / M(c^t, d^t), M).  The pair
K = c^t * M/M(c^t, d^t), L = d^t * M/M(c^t, d^t) always satisfies
M(K, L) = M, and the base N = (M / M(c^t, d^t))^(1/(1-t)) is the kernel
raised back to the power 1/(1-t).  The kernel takes any number of
arguments: ``multivar``'s n-ary base and tuple run it too, with the n
component values stacked into one array.  A kernel pair also carries a
fused evaluator, ``MeanPair.evaluate(x, y) -> (K, L, M(x, y))``, which
runs the kernel once for all three; the invariance scan uses it, and K
and L are its first two outputs, so the scan checks the code K and L
run.  K, L, the base and the fused evaluator all run long 1-D inputs in
cache-sized blocks (``means._blockwise``), bit-identical to one pass.
The public constructors are choices of (M, c, d) plus their own range,
flag and spec policy:

* ``general_pair`` / ``general_base``: arbitrary means C, D.  The base
  need not be a mean; the pair always is.
* ``xy_pair``: the selection means (P_A, P_{A'}) of a cone set A.
* ``log_pair``: the same selections with M the logarithmic mean, where
  the ratio is t*(x-y)/(x^t-y^t) and t may reach -1 and 1.
* ``self_complement_base``: the coordinates (x, y), giving the
  self-complementary kernel M_t = (M / M(x^t, y^t))^(1/(1-t)).

A second family lives on the whole real line: ``translative_conjugate``
transports a homogeneous mean through exp/log to a translative one, and
``translative_pair`` builds the additive analogue of the xy construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .means import Mean, _blockwise, _pow, classical
from .projective import _COMPLEMENT_NAME, ConeSet, _selections, builtin_cone

__all__ = [
    "MeanPair",
    "log_pair",
    "self_complement_base",
    "xy_pair",
    "general_base",
    "general_pair",
    "RealMean",
    "RealMeanPair",
    "TRANSLATIVE_ARG_LIMIT",
    "translative_conjugate",
    "ARITHMETIC_ON_REALS",
    "translative_pair",
]


@dataclass(frozen=True)
class MeanPair:
    """Ordered pair (K, L) tagged with the mean it claims to leave invariant.

    ``t`` is the construction parameter when one exists (None for ad-hoc
    pairs such as (arithmetic, harmonic) around geometric).  ``spec`` is
    the parseable pair expression when every ingredient has one.
    ``fused`` is a one-pass evaluator (x, y) -> (K, L, M(x, y)) that the
    kernel constructors attach after construction; K and L are its first
    two outputs.  It is not an init argument, so ``dataclasses.replace``
    and any hand-built pair leave it None and evaluate through ``K.fn``,
    ``L.fn`` and ``target.fn``: a copy with another K, L or target is
    checked against its own components, never a stale kernel.
    """

    K: Mean
    L: Mean
    target: Mean
    t: float | None = None
    spec: str | None = None
    fused: Callable | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def evaluate(self, x, y):
        """(K(x, y), L(x, y), M(x, y)) through the raw evaluators.

        Unvalidated, like ``Mean.fn``.  One kernel pass when the pair
        carries ``fused``; otherwise ``K.fn``, ``L.fn`` and ``target.fn``.
        """
        if self.fused is not None:
            return self.fused(x, y)
        return self.K.fn(x, y), self.L.fn(x, y), self.target.fn(x, y)


def _wrap(s: str) -> str:
    return f"({s})" if ":" in s else s


def _spec(head: str, specs: tuple[str | None, ...], t: float) -> str | None:
    if any(s is None for s in specs):
        return None
    body = ":".join(_wrap(s) for s in specs)
    return f"{head}:{body}:{t!r}"


def _kernel(M: Callable, components: Callable, t: float) -> Callable:
    """The one construction, at any arity: args -> (powers, ratio, M(*args)).

    ``M`` is a raw evaluator and ``components`` maps the arguments to the
    component values, as many as ``M`` takes: (c, d) for a bivariate M,
    one stacked (n, ...) array for an n-ary one.  ``powers`` lists their
    t-th powers, and the ratio M(*args) / M(*powers) is N^(1-t) of the
    base, so a pair never pays the lossy 1/(1-t) exponent round trip.
    The ratio is a fresh array (or a numpy scalar) that the caller may
    overwrite.
    """

    def fn(*args):
        # the comprehension drops the component arrays before M allocates
        powers = [_pow(c, t) for c in components(*args)]
        m = M(*args)
        return powers, m / M(*powers), m

    return fn


def _kernel_pair(M: Mean, components: Callable, t: float, name: str, args: str,
                 symmetric: bool, homogeneous: bool, spec: str | None) -> MeanPair:
    kernel = _kernel(M.fn, components, t)

    # K, L and the pair's fused evaluator all end this one kernel pass
    def fused(x, y):
        (ct, dt), ratio, mxy = kernel(x, y)
        k = ratio * ct
        ratio *= dt  # the ratio is fresh: reuse it for L
        return k, ratio, mxy

    K = Mean(_blockwise(fused, 0), f"{name}.K({args})", symmetric=symmetric,
             homogeneous=homogeneous)
    L = Mean(_blockwise(fused, 1), f"{name}.L({args})", symmetric=symmetric,
             homogeneous=homogeneous)
    pair = MeanPair(K, L, target=M, t=t, spec=spec)
    # set past the frozen init, so any copy made by replace() drops it
    object.__setattr__(pair, "fused", _blockwise(fused))
    return pair


def _kernel_base(M: Mean, components: Callable, t: float, label: str,
                 symmetric: bool, homogeneous: bool, spec: str | None) -> Mean:
    # monotone and strict stay False: mean-ness is left to an explicit scan
    kernel = _kernel(M.fn, components, t)
    q = 1.0 / (1.0 - t)

    def fn(x, y):
        return _pow(kernel(x, y)[1], q)

    return Mean(_blockwise(fn), label=spec or label, symmetric=symmetric,
                homogeneous=homogeneous, monotone=False, strict=False, spec=spec)


def _coordinates(x, y):
    return x, y


def _selection_pair(M: Mean, t: float, A: ConeSet | None, name: str,
                    lead: str) -> MeanPair:
    # shared by log_pair and xy_pair: components (P_A, P_{A'}), flags
    # from the set's declarations, spec only for named complements
    if A is None:
        A = builtin_cone("full")
    spec = None
    if 0.0 < t < 1.0 and A.name in _COMPLEMENT_NAME:
        spec = _spec(
            "pair",
            (M.spec, f"proj:{A.name}", f"proj:{_COMPLEMENT_NAME[A.name]}"),
            t,
        )
    args = f"{lead}t={t!r}, {A.name or '<set>'}"
    return _kernel_pair(M, partial(_selections, A), t, name, args,
                        symmetric=A.declared_asymmetric or t == 0.0,
                        homogeneous=A.declared_cone, spec=spec)


def log_pair(t: float, A: ConeSet | None = None) -> MeanPair:
    """Pair complementary to the logarithmic mean, split by a selection set.

    K = P_A^t * t*(x-y)/(x^t - y^t) and L uses the complementary set: the
    kernel over the selections with M logarithmic, whose ratio
    M / M(P^t, P'^t) is exactly that quotient.  Defined for t in [-1, 1]
    excluding 0; at t = 1 the ratio is 1 and the pair degenerates to the
    two coordinate selections, at t = -1 the ratio is xy and the
    selections swap.  Negating t swaps K and L.
    """
    t = float(t)
    if not (-1.0 <= t <= 1.0) or t == 0.0:
        raise ParameterError("log pair requires t in [-1, 1] with t != 0")
    return _selection_pair(classical("logarithmic"), t, A, "logpair", "")


def self_complement_base(M: Mean, t: float) -> Mean:
    """The kernel M_t = (M / M(x^t, y^t))^(1/(1-t)) for t in (-1, 1).

    The base over the coordinates (x, y).  Symmetric and homogeneous
    whenever M is (required); a mean exactly when M is also monotone,
    which is not required here: the monotone and strict flags stay False
    and mean-ness is left to an explicit verify call.  M_0 = M and
    geometric reproduces itself for every t.
    """
    t = float(t)
    if not (-1.0 < t < 1.0):
        raise ParameterError("self-complementary base requires -1 < t < 1")
    if not (M.symmetric and M.homogeneous):
        raise DomainError(
            f"{M.label}: base construction requires symmetric and homogeneous flags"
        )
    spec = _spec("mt", (M.spec,), t)
    return _kernel_base(M, _coordinates, t, f"mt({M.label}, t={t!r})",
                        symmetric=True, homogeneous=True, spec=spec)


def _require_target(M: Mean, what: str) -> None:
    if not (M.symmetric and M.homogeneous and M.monotone):
        raise DomainError(
            f"{M.label}: {what} requires symmetric, homogeneous, monotone flags"
        )


def xy_pair(M: Mean, t: float, A: ConeSet | None = None) -> MeanPair:
    """Pair (P_A^t * M_t^(1-t), P_{A'}^t * M_t^(1-t)) complementary to M.

    Requires M symmetric, homogeneous, and monotone, and t in (-1, 1).
    The kernel over the selections (P_A, P_{A'}): P^t * M_t^(1-t) is
    evaluated as P^t * M / M(P^t, P'^t), avoiding the 1/(1-t) exponent
    round trip.  K and L are symmetric when the selection set is
    asymmetric (or t = 0, where both collapse to M) and homogeneous when
    it is a cone; they are not monotone in general, which
    check_monotone_trace exposes for the plain arithmetic case.
    """
    t = float(t)
    if not (-1.0 < t < 1.0):
        raise ParameterError("xy pair requires -1 < t < 1")
    _require_target(M, "xy pair")
    return _selection_pair(M, t, A, "xypair", f"{M.label}, ")


def _require_pair_inputs(M: Mean, t: float, what: str) -> float:
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ParameterError(f"{what} requires 0 < t < 1")
    _require_target(M, what)
    return t


def _component_values(C: Mean, D: Mean) -> Callable:
    def components(x, y):
        return C.fn(x, y), D.fn(x, y)

    return components


def general_base(M: Mean, C: Mean, D: Mean, t: float) -> Mean:
    """The kernel N = (M / M(C^t, D^t))^(1/(1-t)) for arbitrary means C, D.

    Requires M symmetric, homogeneous, monotone and t in (0, 1); C and D
    are unconstrained.  The output is NOT guaranteed to be a mean: with
    M = C = arithmetic and D = harmonic its trace overshoots the identity
    by a factor approaching 2^(t/(1-t)).  Run check_meanness when
    mean-ness matters.
    """
    t = _require_pair_inputs(M, t, "general base")
    return _kernel_base(M, _component_values(C, D), t,
                        f"nt({M.label}; {C.label}, {D.label}; t={t!r})",
                        symmetric=C.symmetric and D.symmetric,
                        homogeneous=C.homogeneous and D.homogeneous,
                        spec=_spec("nt", (M.spec, C.spec, D.spec), t))


def general_pair(M: Mean, C: Mean, D: Mean, t: float) -> MeanPair:
    """Pair (C^t * N^(1-t), D^t * N^(1-t)) with N the general base.

    Both components are always means and always satisfy M(K, L) = M,
    whether or not N itself is a mean.
    """
    t = _require_pair_inputs(M, t, "general pair")
    return _kernel_pair(M, _component_values(C, D), t, "pair",
                        f"{M.label}; {C.label}, {D.label}; t={t!r}",
                        symmetric=C.symmetric and D.symmetric,
                        homogeneous=C.homogeneous and D.homogeneous,
                        spec=_spec("pair", (M.spec, C.spec, D.spec), t))


@dataclass(frozen=True)
class RealMean:
    """Mean on the whole real line; no positivity constraint on arguments.

    ``translative`` claims N(x + c, y + c) = N(x, y) + c; like every flag
    it is a declaration, testable by sampling.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    symmetric: bool = False
    monotone: bool = False
    translative: bool = False
    strict: bool = False

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = self.fn(x, y)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def __repr__(self) -> str:
        return f"RealMean({self.label})"


@dataclass(frozen=True)
class RealMeanPair:
    K: RealMean
    L: RealMean
    target: RealMean
    t: float | None = None


# exp overflows just above 709; stay a little inside
TRANSLATIVE_ARG_LIMIT = 700.0


def translative_conjugate(M: Mean) -> RealMean:
    """Transport M through exp/log: N(x, y) = log M(e^x, e^y).

    N is translative exactly when M is homogeneous (declared accordingly).
    Arguments beyond |x| <= 700 raise OverflowError before exp runs.
    """

    def fn(x, y):
        if np.any(np.abs(x) > TRANSLATIVE_ARG_LIMIT) or np.any(
            np.abs(y) > TRANSLATIVE_ARG_LIMIT
        ):
            raise OverflowError(
                f"conjugate of {M.label}: arguments must satisfy "
                f"|x| <= {TRANSLATIVE_ARG_LIMIT:g}"
            )
        return np.log(M.fn(np.exp(x), np.exp(y)))

    return RealMean(
        fn,
        label=f"conj({M.label})",
        symmetric=M.symmetric,
        monotone=M.monotone,
        translative=M.homogeneous,
        strict=M.strict,
    )


def _real_arith_fn(x, y):
    return 0.5 * (x + y)


ARITHMETIC_ON_REALS = RealMean(
    _real_arith_fn,
    "arithmetic-on-reals",
    symmetric=True,
    monotone=True,
    translative=True,
    strict=True,
)


def translative_pair(N: RealMean, t: float) -> RealMeanPair:
    """Additive pair (tx + (1-t)N_t, ty + (1-t)N_t) complementary to N.

    N_t = (N(x,y) - N(tx,ty))/(1-t); the components fold the 1-t factor,
    K = tx + N(x,y) - N(tx,ty), which is the same expression with two
    fewer roundings.  Requires N symmetric, monotone, and translative,
    and t in (-1, 1).  For the arithmetic mean this is exactly the family
    of weighted arithmetic pairs with weights (1+t)/2 and (1-t)/2.
    """
    t = float(t)
    if not (-1.0 < t < 1.0):
        raise ParameterError("translative pair requires -1 < t < 1")
    if not (N.symmetric and N.monotone and N.translative):
        raise DomainError(
            f"{N.label}: translative pair requires symmetric, monotone, "
            "translative flags"
        )

    def k_fn(x, y):
        return t * x + (N.fn(x, y) - N.fn(t * x, t * y))

    def l_fn(x, y):
        return t * y + (N.fn(x, y) - N.fn(t * x, t * y))

    sym = t == 0.0
    K = RealMean(k_fn, f"transpair.K({N.label}, t={t!r})",
                 symmetric=sym, monotone=False, translative=True)
    L = RealMean(l_fn, f"transpair.L({N.label}, t={t!r})",
                 symmetric=sym, monotone=False, translative=True)
    return RealMeanPair(K, L, target=N, t=t)
