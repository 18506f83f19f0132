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

The selection pairs take their spec from the selection means' own specs
(``projective_mean``), so only ``projective`` knows which built-in sets
are complements.

A second family lives on the whole real line: ``translative_conjugate``
transports a homogeneous mean through exp/log to a translative one, and
``translative_pair`` builds the additive analogue of the xy construction,
a ``MeanPair`` of ``RealMean``s that ``check_invariance`` scans like any
other pair.  Both families are wired the same way (``_wired_pair``): one
evaluator returns K, L and M(x, y) from one pass, K and L are its parts
0 and 1, and the pair carries it as ``fused``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError
from .means import Mean, _blockwise, _pow, _read, _unit, classical
from .projective import (ConeSet, _selections, builtin_cone, complement_cone,
                         projective_mean)

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

    K, L and the target are ``Mean``s on the positive half-line, or
    ``RealMean``s on the whole real line (``translative_pair``; the name
    ``RealMeanPair`` refers to this class).  ``t`` is the construction
    parameter when one exists (None for ad-hoc pairs such as (arithmetic,
    harmonic) around geometric).  ``spec`` is the parseable pair
    expression when every ingredient has one.
    ``fused`` is a one-pass evaluator (x, y) -> (K, L, M(x, y)) that the
    kernel constructors attach after construction; K and L are its first
    two outputs.  It is not an init argument, so ``dataclasses.replace``
    and any hand-built pair leave it None and evaluate through ``K.fn``,
    ``L.fn`` and ``target.fn``: a copy with another K, L or target is
    checked against its own components, never a stale kernel.
    """

    K: Mean | RealMean
    L: Mean | RealMean
    target: Mean | RealMean
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


def _wired_pair(fused: Callable, make: Callable, name: str, args: str, target,
                t: float, spec: str | None = None) -> MeanPair:
    """The pair whose K and L are parts 0 and 1 of one evaluator.

    ``fused(x, y) -> (K, L, M(x, y))`` runs once for all three, and
    ``make(fn, label)`` builds each component around its part, labelled
    ``<name>.K(<args>)`` and ``<name>.L(<args>)``.  All of them run long
    1-D inputs in blocks.
    """
    K, L = (make(_blockwise(fused, i), f"{name}.{part}({args})")
            for i, part in enumerate("KL"))
    pair = MeanPair(K, L, target=target, t=t, spec=spec)
    # set past the frozen init, so any copy made by replace() drops it
    object.__setattr__(pair, "fused", _blockwise(fused))
    return pair


def _kernel_pair(M: Mean, components: Callable, t: float, name: str, args: str,
                 symmetric: bool, homogeneous: bool, spec: str | None) -> MeanPair:
    kernel = _kernel(M.fn, components, t)

    def fused(x, y):
        (ct, dt), ratio, mxy = kernel(x, y)
        k = ratio * ct
        ratio *= dt  # the ratio is fresh: reuse it for L
        return k, ratio, mxy

    return _wired_pair(fused, partial(Mean, symmetric=symmetric, homogeneous=homogeneous),
                       name, args, M, t, spec)


def _base(kernel: Callable, t: float) -> Callable:
    """The base N = ratio^(1/(1-t)) of a ``_kernel``, at its arity."""
    q = 1.0 / (1.0 - t)

    def fn(*args):
        return _pow(kernel(*args)[1], q)

    return fn


def _kernel_base(M: Mean, components: Callable, t: float, label: str,
                 symmetric: bool, homogeneous: bool, spec: str | None) -> Mean:
    # monotone and strict stay False: mean-ness is left to an explicit scan
    return Mean(_blockwise(_base(_kernel(M.fn, components, t), t)),
                label=spec or label, symmetric=symmetric,
                homogeneous=homogeneous, monotone=False, strict=False, spec=spec)


def _signed_unit(t) -> bool:
    return -1.0 < t < 1.0


def _coordinates(x, y):
    return x, y


def _selection_pair(M: Mean, t: float, A: ConeSet | None, name: str,
                    lead: str) -> MeanPair:
    # shared by log_pair and xy_pair: components (P_A, P_{A'}), flags
    # from the set's declarations, spec where both selections have one,
    # as general_pair spells it
    if A is None:
        A = builtin_cone("full")
    spec = None
    if 0.0 < t < 1.0:
        spec = _spec("pair", (M.spec, projective_mean(A).spec,
                              projective_mean(complement_cone(A)).spec), t)
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
    t = _read(t, float, lambda t: -1.0 <= t <= 1.0 and t != 0.0,
              "log pair requires t in [-1, 1] with t != 0")
    return _selection_pair(classical("logarithmic"), t, A, "logpair", "")


def self_complement_base(M: Mean, t: float) -> Mean:
    """The kernel M_t = (M / M(x^t, y^t))^(1/(1-t)) for t in (-1, 1).

    The base over the coordinates (x, y).  Symmetric and homogeneous
    whenever M is (required); a mean exactly when M is also monotone,
    which is not required here: the monotone and strict flags stay False
    and mean-ness is left to an explicit verify call.  M_0 = M and
    geometric reproduces itself for every t.
    """
    t = _read(t, float, _signed_unit, "self-complementary base requires -1 < t < 1")
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
    t = _read(t, float, _signed_unit, "xy pair requires -1 < t < 1")
    _require_target(M, "xy pair")
    return _selection_pair(M, t, A, "xypair", f"{M.label}, ")


def _require_pair_inputs(M: Mean, t: float, what: str) -> float:
    t = _read(t, float, _unit, f"{what} requires 0 < t < 1")
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


def _finite(v) -> bool:
    return np.isfinite(v).all()


@dataclass(frozen=True)
class RealMean:
    """Mean on the whole real line; no positivity constraint on arguments.

    ``translative`` claims N(x + c, y + c) = N(x, y) + c; like every flag
    it is a declaration, testable by sampling.  Calling it validates its
    arguments as ``Mean`` does: +-inf and nan raise ``DomainError``.  The
    raw evaluator ``fn`` does not check.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    symmetric: bool = False
    monotone: bool = False
    translative: bool = False
    strict: bool = False
    # not a field: a real-line mean makes no claim of homogeneity, and
    # the scans that read the flag (flags, trace) see False
    homogeneous = False
    # the validated call of ``Mean``, admitting every finite real
    _admits = staticmethod(_finite)
    _domain = "finite reals"
    __call__ = Mean.__call__

    def __repr__(self) -> str:
        return f"RealMean({self.label})"


# a pair on the real line is a MeanPair of RealMeans
RealMeanPair = MeanPair

# exp overflows just above 709; stay a little inside
TRANSLATIVE_ARG_LIMIT = 700.0


class _TranslativeOverflow(DomainError, OverflowError):
    """An argument of a translative conjugate lies beyond the limit."""


def translative_conjugate(M: Mean) -> RealMean:
    """Transport M through exp/log: N(x, y) = log M(e^x, e^y).

    N is translative exactly when M is homogeneous (declared accordingly).
    Arguments beyond |x| <= 700 raise before exp runs, with an error that
    is both a ``DomainError`` and an ``OverflowError``.
    """

    def fn(x, y):
        if np.any(np.abs(x) > TRANSLATIVE_ARG_LIMIT) or np.any(
            np.abs(y) > TRANSLATIVE_ARG_LIMIT
        ):
            raise _TranslativeOverflow(
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


def translative_pair(N: RealMean, t: float) -> MeanPair:
    """Additive pair (tx + (1-t)N_t, ty + (1-t)N_t) complementary to N.

    N_t = (N(x,y) - N(tx,ty))/(1-t); the components fold the 1-t factor,
    K = tx + N(x,y) - N(tx,ty), which is the same expression with two
    fewer roundings.  Like a kernel pair, the pair carries a fused
    evaluator: K, L and N(x, y) come from one pass that evaluates N
    twice.  Requires N symmetric, monotone, and translative, and t in
    (-1, 1).  For the arithmetic mean this is exactly the family of
    weighted arithmetic pairs with weights (1+t)/2 and (1-t)/2.
    """
    t = _read(t, float, _signed_unit, "translative pair requires -1 < t < 1")
    if not (N.symmetric and N.monotone and N.translative):
        raise DomainError(
            f"{N.label}: translative pair requires symmetric, monotone, "
            "translative flags"
        )

    def fused(x, y):
        m = N.fn(x, y)
        shift = m - N.fn(t * x, t * y)
        return t * x + shift, t * y + shift, m

    return _wired_pair(fused, partial(RealMean, symmetric=t == 0.0, translative=True),
                       "transpair", f"{N.label}, t={t!r}", N, t)
