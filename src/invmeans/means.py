"""Bivariate means on the positive half-line.

A mean is a positive function M(x, y) with min(x, y) <= M(x, y) <= max(x, y).
This module provides the classical catalog (arithmetic, geometric, harmonic,
logarithmic, min, max, the two coordinate projections, and the power family),
the two-parameter difference means ``stolarsky(r, s)``, and trace functions
f(x) = M(x, 1) for homogeneous means.

Every evaluator is numpy-universal: it accepts floats or arrays and
broadcasts elementwise, so grid scans stay vectorized end to end.  The
multi-pass evaluators (logarithmic, power and Stolarsky means) run long
1-D inputs in cache-sized blocks (``_blockwise``): each block keeps its
temporaries in the core's L2 cache instead of streaming one scan-sized
array per temporary, and the output is bit-identical to a single pass.
The short arithmetic, geometric and harmonic formulas run whole.

Each lane computes one branch.  Every evaluator with an exceptional
branch runs its main formula on every lane and then patches the
exceptional lanes (``_patch``): the near-diagonal series of the
logarithmic and Stolarsky means (one ``_series``, since the logarithmic
mean is the Stolarsky (1, 0) limit), the log1p form of a narrow gap
(``_gap_log``), the limits of the power mean at 0 and inf, the halved
sum of the arithmetic mean where the sum overflows and the
tiny-argument form of the harmonic mean where it underflows (and, in
``multivar``, the scaled form of the n-ary arithmetic mean) run on
those lanes only, gathered out and scattered back, instead of on every
lane for an ``np.where`` to throw away.  Scans sample log-uniform
pairs, so those lanes are rare.  A scalar call takes the same path:
``_patch`` replaces a 0-d result whole.  The power mean takes one power
per lane: the term of the argument it factors out is exactly 1.  Both
give the same bits as computing every branch and selecting one.  For
|p| < 1e-2 the power mean takes an expm1/log1p form instead, chosen
once when it is built, which keeps its relative accuracy as p goes to 0.

The catalog (``_catalog``) is homogeneous and monotone, and each of its
means is labelled by its spec.  ``classical`` looks up the named means
of CLASSICAL_NAMES only; the power and Stolarsky means are built by
``power_mean`` and ``stolarsky``, or parsed from their spec forms by
``specs``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidMeanSpec, ParameterError

__all__ = [
    "NEAR_DIAGONAL_RTOL",
    "CLASSICAL_NAMES",
    "Mean",
    "TraceFn",
    "classical",
    "power_mean",
    "stolarsky",
    "trace_of",
]

# Relative gap |x - y| / max(x, y) below which quotient-form evaluators
# switch to a second-order series around the midpoint; the direct quotient
# degenerates to 0/0 on the diagonal.
NEAR_DIAGONAL_RTOL = 1e-8

# Lanes per block of a blocked evaluation: 64 KB per float64 array, so the
# dozen or so temporaries of a quotient-form evaluator or a pair kernel
# fit in a 2 MB per-core L2 cache together.
_BLOCK = 8192


@dataclass(frozen=True)
class Mean:
    """A positive bivariate function together with declared property flags.

    The flags are claims, not proofs: ``symmetric`` (invariant under argument
    swap), ``homogeneous`` (degree-1 under positive scaling), ``monotone``
    (nondecreasing in each argument), ``strict`` (strictly between min and
    max off the diagonal).  ``verify.check_flags`` samples declared flags and
    reports the first one that fails.

    ``spec`` is the machine-readable constructor string for this mean when
    one exists in the textual grammar, otherwise None.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    symmetric: bool = False
    homogeneous: bool = False
    monotone: bool = False
    strict: bool = False
    spec: str | None = None

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (_positive_finite(x) and _positive_finite(y)):
            raise DomainError(f"{self.label}: arguments must be positive reals")
        out = self.fn(x, y)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def __repr__(self) -> str:
        return f"Mean({self.label})"


def _positive_finite(v) -> bool:
    """Whether every entry of v is a positive finite real: 0, +-inf and nan fail."""
    v = np.asarray(v)
    return ((v > 0.0) & (v < np.inf)).all()


class _blockwise:
    """Evaluate ``fn(x, y)`` block by block when the inputs are long 1-D arrays.

    When the broadcast inputs are 1-D and longer than ``_BLOCK``, ``fn``
    runs on consecutive slices of ``_BLOCK`` lanes (a length-1 or 0-d
    argument is passed whole) and writes into preallocated outputs, one
    per element when ``fn`` returns a tuple.  With ``part`` set, ``fn``
    returns a tuple and only its element ``part`` is kept, block by
    block.  ``fn`` must be elementwise, so the result is the same bits as
    one call on the whole arrays.  Scalars, 0-d, short and N-d inputs go
    straight to ``fn``, and so do the block-sized inputs of evaluators
    nested inside ``fn``.

    A slotted callable, like ``functools.partial``, rather than a
    closure: a scan over a parameter grid builds thousands of pairs with
    three of these each, and an instance takes a fraction of a closure's
    memory.
    """

    __slots__ = ("fn", "part")

    def __init__(self, fn, part: int | None = None):
        self.fn = fn
        self.part = part

    def _whole(self, x, y):
        out = self.fn(x, y)
        return out if self.part is None else out[self.part]

    def __call__(self, x, y):
        # the common scalar and block-sized calls leave after two lookups
        if getattr(x, "size", 1) <= _BLOCK and getattr(y, "size", 1) <= _BLOCK:
            return self._whole(x, y)
        nx, ny = np.size(x), np.size(y)
        n = max(nx, ny)
        if np.ndim(x) > 1 or np.ndim(y) > 1 or min(nx, ny) not in (1, n):
            return self._whole(x, y)  # N-d, or lengths that do not broadcast
        outs = None
        for lo in range(0, n, _BLOCK):
            s = slice(lo, lo + _BLOCK)
            got = self._whole(x[s] if nx == n else x, y[s] if ny == n else y)
            parts = got if isinstance(got, tuple) else (got,)
            if outs is None:
                outs = tuple(np.empty(n, dtype=np.result_type(p)) for p in parts)
            for out, p in zip(outs, parts):
                out[s] = p
        return outs if isinstance(got, tuple) else outs[0]


def _pow(x, t: float):
    """x**t computed as exp(t*log x), uniform over the positive range."""
    if t == 0.0:
        return np.ones_like(np.asarray(x, dtype=float))
    if t == 1.0:
        return np.asarray(x, dtype=float)
    return np.exp(t * np.log(x))


def _patch(out, mask, fn, *cols):
    """``out`` with the lanes of ``mask`` replaced by ``fn(*cols)``.

    ``fn`` runs on the masked lanes only: the lanes of ``mask`` (which
    has ``out``'s shape) are gathered from each column, passed to ``fn``
    and scattered into ``out`` in place, so an exceptional branch costs
    nothing when no lane takes it.  A column of another shape, such as a
    scalar or one side of an outer product, is broadcast to ``out``'s
    shape before it is gathered.  ``fn`` must be elementwise; its results
    are the same bits as on the whole columns.  A 0-d or scalar ``out``
    (a scalar call) is returned or replaced whole.
    """
    if getattr(out, "ndim", 0) == 0:  # np.ndim costs ten times as much
        return fn(*cols) if mask else out
    if mask.any():
        lanes = np.nonzero(mask)
        # the shape test keeps the common same-shape columns off the
        # slower broadcast_to path
        out[lanes] = fn(*(c[lanes] if getattr(c, "shape", None) == out.shape
                          else np.broadcast_to(c, out.shape)[lanes] for c in cols))
    return out


def _one():
    # the guard value of the lanes another branch will replace
    return 1.0


def _gap_log(hi, lo, d):
    """log(hi/lo) for d = hi - lo, with log1p accuracy when the gap is small.

    Every lane takes plain log subtraction, where cancellation is harmless
    for wide gaps (d > lo) and d/lo could overflow; the narrow lanes
    (d <= lo) are patched with log1p(d/lo), which stays fully accurate as
    the gap closes.
    """
    return _patch(np.log(hi) - np.log(lo), d <= lo, _log1p_gap, lo, d)


def _log1p_gap(lo, d):
    return np.log1p(d / lo)


def _series(k: float):
    """The near-diagonal series m*(1 + k*u**2/6), u = d/(2m), of a difference mean.

    k = r + s - 3 for the Stolarsky mean (r, s); the logarithmic mean is
    its (1, 0) limit, k = -2.
    """
    def series(hi, lo, d):
        m = 0.5 * (hi + lo)
        u = d / (2.0 * m)
        return m * (1.0 + k * (u * u) / 6.0)

    return series


_LOG_SERIES = _series(-2.0)


@_blockwise
def _logmean(x, y):
    # (x - y)/(log x - log y), extended by continuity across the diagonal.
    # The quotient runs on log1p of the relative gap, which keeps it fully
    # accurate for nearby arguments; inside NEAR_DIAGONAL_RTOL a
    # second-order midpoint series takes over, patched into those lanes
    # after a guard of 1.0 kept the quotient from dividing by 0 there.
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    d = hi - lo
    near = d <= NEAR_DIAGONAL_RTOL * hi
    w = _patch(_gap_log(hi, lo, d), near, _one)
    return _patch(d / w, near, _LOG_SERIES, hi, lo, d)


def _arithmetic_fn(x, y):
    # 0.5 * (x + y) never drops below min(x, y), not even for subnormal
    # arguments, but the sum overflows to inf once it passes DBL_MAX (numpy
    # still warns about that).  Only those lanes are redone as
    # 0.5*x + 0.5*y, where halving arguments that large is exact.  The
    # mask is m == inf, not np.isinf(m): on a scalar call the comparison
    # costs a tenth of the ufunc, and positive arguments never give -inf
    m = 0.5 * (x + y)
    return _patch(m, m == np.inf, _halves, x, y)


def _halves(x, y):
    return 0.5 * x + 0.5 * y


def _geometric_fn(x, y):
    # factored square roots: no overflow when the product of the arguments
    # would leave the float range
    return np.sqrt(x) * np.sqrt(y)


def _harmonic_fn(x, y):
    # reciprocal form for the same overflow reason.  The reciprocals of
    # tiny (subnormal) arguments overflow and the mean underflows to 0,
    # below min(x, y); only those lanes are redone as 2*lo/(1 + lo/hi).
    m = 2.0 / (1.0 / x + 1.0 / y)
    return _patch(m, m == 0.0, _harmonic_tiny, x, y)


def _harmonic_tiny(x, y):
    lo = np.minimum(x, y)
    return 2.0 * lo / (1.0 + lo / np.maximum(x, y))


def _proj1_fn(x, y):
    return np.broadcast_arrays(x, y)[0]


def _proj2_fn(x, y):
    return np.broadcast_arrays(x, y)[1]


# |p| below which the power mean takes its expm1/log1p form
_SMALL_POWER = 1e-2


def _power_fn(p: float):
    big, other = (np.maximum, np.minimum) if p > 0 else (np.minimum, np.maximum)
    if abs(p) < _SMALL_POWER:
        # ((1 + r**p)/2)**(1/p) rounds (1 + r**p)/2 to within 1e-16 of 1,
        # and the 1/p power multiplies that error by 1/|p|; with r**p - 1
        # taken as expm1(p log r) and the 1/p power as exp(log1p(.)/p) the
        # relative accuracy holds as p goes to 0
        def factor(b, r):
            return np.exp(np.log1p(0.5 * np.expm1(p * np.log(r))) / p)
    else:
        # the term of b itself, (b/b)**p, is b/b: exactly 1.0 on finite
        # nonzero b, so it costs no power
        def factor(b, r):
            return _pow(0.5 * (b / b + _pow(r, p)), 1.0 / p)

    def fn(x, y):
        # factor out b = max(x, y) (min for p < 0) so the power stays in
        # (0, 1].  Where b is 0 or inf the factored form breaks down
        # (nan, 0 or inf) and the mean's limit is b itself
        b = big(x, y)
        out = b * factor(b, other(x, y) / b)
        return _patch(out, (b == 0.0) | (b == np.inf), lambda b: b, b)

    return _blockwise(fn)


def power_mean(p: float) -> Mean:
    """Power mean ((x**p + y**p)/2)**(1/p) for finite p; p = 0 is geometric."""
    p = float(p)
    if not math.isfinite(p):
        raise ParameterError(f"power mean requires a finite exponent, got {p!r}")
    if p == 0.0:
        return _REGISTRY["geometric"]
    return _catalog(_power_fn(p), f"power:{p!r}")


def stolarsky(r: float, s: float) -> Mean:
    """Difference mean ((s/r)*(x**r - y**r)/(x**s - y**s))**(1/(r - s)).

    Requires r != s and r, s both finite and nonzero.  Special cases
    worth knowing: (2, 1) is the arithmetic mean, (1, -1) the geometric
    mean, and (3/2, 1/2) the Heronian mean (x + sqrt(x*y) + y)/3.
    """
    r = float(r)
    s = float(s)
    if not (math.isfinite(r) and math.isfinite(s)):
        raise ParameterError("stolarsky mean requires finite r and s")
    if r == s:
        raise ParameterError("stolarsky mean requires r != s")
    if r == 0.0 or s == 0.0:
        raise ParameterError("stolarsky mean requires nonzero r and s")
    q = 1.0 / (r - s)
    coeff = s / r
    series = _series(r + s - 3.0)

    def fn(x, y):
        # the quotient form on every lane, with guards of 1.0 where the
        # near-diagonal series will be patched in
        hi = np.maximum(x, y)
        lo = np.minimum(x, y)
        d = hi - lo
        near = d <= NEAR_DIAGONAL_RTOL * hi
        w = _gap_log(hi, lo, d)
        core = coeff * np.expm1(-r * w) / _patch(np.expm1(-s * w), near, _one)
        out = hi * _pow(_patch(core, near, _one), q)
        return _patch(out, near, series, hi, lo, d)

    return _catalog(_blockwise(fn), f"stolarsky:{r!r}:{s!r}")


def _catalog(fn, name: str, symmetric: bool = True, strict: bool = True) -> Mean:
    """A mean of the catalog: homogeneous and monotone, named by its spec."""
    return Mean(fn, name, symmetric=symmetric, homogeneous=True, monotone=True,
                strict=strict, spec=name)


_REGISTRY: dict[str, Mean] = {M.label: M for M in (
    _catalog(_arithmetic_fn, "arithmetic"),
    _catalog(_geometric_fn, "geometric"),
    _catalog(_harmonic_fn, "harmonic"),
    _catalog(_logmean, "logarithmic"),
    _catalog(np.minimum, "min", strict=False),
    _catalog(np.maximum, "max", strict=False),
    _catalog(_proj1_fn, "proj1", symmetric=False, strict=False),
    _catalog(_proj2_fn, "proj2", symmetric=False, strict=False),
)}

# Catalog identifiers accepted by classical(), in a stable iteration order.
CLASSICAL_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def classical(name: str) -> Mean:
    """Look up a catalog mean by one of the identifiers in CLASSICAL_NAMES.

    The parameterized means have constructors of their own
    (``power_mean``, ``stolarsky``) and forms of the spec grammar
    (``specs.parse_mean("power:2")``); ``classical`` does not parse them.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    raise InvalidMeanSpec(f"unknown mean identifier {name!r}", position=0)


@dataclass(frozen=True)
class TraceFn:
    """One-variable restriction f(x) = M(x, 1) of a homogeneous mean.

    For homogeneous M the trace determines the mean: M(x, y) = y*f(x/y).
    """

    mean: Mean

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.mean(x, np.ones_like(x))


def trace_of(M: Mean) -> TraceFn:
    """Trace of a homogeneous mean; raises DomainError otherwise."""
    if not M.homogeneous:
        raise DomainError(f"{M.label}: trace requires the homogeneous flag")
    return TraceFn(M)
