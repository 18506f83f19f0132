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


def _gap_log(hi, lo, d, near):
    """log(hi/lo) with log1p accuracy when the relative gap is small.

    Wide gaps (d > lo) go through plain log subtraction, where cancellation
    is harmless and d/lo could overflow.  Lanes marked near return 0.0 and
    are expected to be discarded by the caller.
    """
    wide = d > lo
    skip = near | wide
    small = np.log1p(np.where(skip, 0.0, d) / np.where(skip, 1.0, lo))
    return np.where(wide, np.log(hi) - np.log(lo), small)


@_blockwise
def _logmean(x, y):
    # (x - y)/(log x - log y), extended by continuity across the diagonal.
    # The quotient runs on log1p of the relative gap, which keeps it fully
    # accurate for nearby arguments; inside NEAR_DIAGONAL_RTOL a
    # second-order midpoint series takes over.
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    d = hi - lo
    near = d <= NEAR_DIAGONAL_RTOL * hi
    m = 0.5 * (hi + lo)
    u = d / (2.0 * m)
    series = m * (1.0 - u * u / 3.0)
    w = _gap_log(hi, lo, d, near)
    return np.where(near, series, d / np.where(near, 1.0, w))


def _arithmetic_fn(x, y):
    # 0.5 * (x + y) never drops below min(x, y), not even for subnormal
    # arguments, but the sum overflows once it passes DBL_MAX (numpy still
    # warns about that).  Only those lanes are redone as 0.5*x + 0.5*y,
    # where halving arguments that large is exact.
    m = 0.5 * (x + y)
    if isinstance(m, np.ndarray):
        over = np.isinf(m)
        if over.any():
            m = np.where(over, 0.5 * x + 0.5 * y, m)
    elif m == np.inf:
        m = 0.5 * x + 0.5 * y
    return m


def _geometric_fn(x, y):
    # factored square roots: no overflow when the product of the arguments
    # would leave the float range
    return np.sqrt(x) * np.sqrt(y)


def _harmonic_fn(x, y):
    # reciprocal form for the same overflow reason.  The reciprocals of
    # tiny (subnormal) arguments overflow and the mean underflows to 0,
    # below min(x, y); only those lanes are redone as 2*lo/(1 + lo/hi).
    m = 2.0 / (1.0 / x + 1.0 / y)
    if isinstance(m, np.ndarray):
        under = m == 0.0
        if under.any():
            m = np.where(under, _harmonic_tiny(x, y), m)
    elif m == 0.0:
        m = _harmonic_tiny(x, y)
    return m


def _harmonic_tiny(x, y):
    lo = np.minimum(x, y)
    return 2.0 * lo / (1.0 + lo / np.maximum(x, y))


def _proj1_fn(x, y):
    return np.broadcast_arrays(x, y)[0]


def _proj2_fn(x, y):
    return np.broadcast_arrays(x, y)[1]


def _power_fn(p: float):
    def fn(x, y):
        # factor out one argument so the powers stay in (0, 1]
        b = np.maximum(x, y) if p > 0 else np.minimum(x, y)
        rx = _pow(x / b, p)
        ry = _pow(y / b, p)
        return b * _pow(0.5 * (rx + ry), 1.0 / p)

    return _blockwise(fn)


def power_mean(p: float) -> Mean:
    """Power mean ((x**p + y**p)/2)**(1/p) for finite p; p = 0 is geometric."""
    p = float(p)
    if not math.isfinite(p):
        raise ParameterError(f"power mean requires a finite exponent, got {p!r}")
    if p == 0.0:
        return _REGISTRY["geometric"]
    name = f"power:{p!r}"
    return Mean(
        _power_fn(p),
        label=name,
        symmetric=True,
        homogeneous=True,
        monotone=True,
        strict=True,
        spec=name,
    )


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

    def fn(x, y):
        hi = np.maximum(x, y)
        lo = np.minimum(x, y)
        d = hi - lo
        near = d <= NEAR_DIAGONAL_RTOL * hi
        m = 0.5 * (hi + lo)
        u = d / (2.0 * m)
        series = m * (1.0 + (r + s - 3.0) * (u * u) / 6.0)
        w = _gap_log(hi, lo, d, near)
        core = coeff * np.expm1(-r * w) / np.where(near, 1.0, np.expm1(-s * w))
        return np.where(near, series, hi * _pow(np.where(near, 1.0, core), q))

    name = f"stolarsky:{r!r}:{s!r}"
    return Mean(
        _blockwise(fn),
        label=name,
        symmetric=True,
        homogeneous=True,
        monotone=True,
        strict=True,
        spec=name,
    )


_REGISTRY: dict[str, Mean] = {
    "arithmetic": Mean(
        _arithmetic_fn, "arithmetic",
        symmetric=True, homogeneous=True, monotone=True, strict=True,
        spec="arithmetic",
    ),
    "geometric": Mean(
        _geometric_fn, "geometric",
        symmetric=True, homogeneous=True, monotone=True, strict=True,
        spec="geometric",
    ),
    "harmonic": Mean(
        _harmonic_fn, "harmonic",
        symmetric=True, homogeneous=True, monotone=True, strict=True,
        spec="harmonic",
    ),
    "logarithmic": Mean(
        _logmean, "logarithmic",
        symmetric=True, homogeneous=True, monotone=True, strict=True,
        spec="logarithmic",
    ),
    "min": Mean(
        np.minimum, "min",
        symmetric=True, homogeneous=True, monotone=True, strict=False,
        spec="min",
    ),
    "max": Mean(
        np.maximum, "max",
        symmetric=True, homogeneous=True, monotone=True, strict=False,
        spec="max",
    ),
    "proj1": Mean(
        _proj1_fn, "proj1",
        symmetric=False, homogeneous=True, monotone=True, strict=False,
        spec="proj1",
    ),
    "proj2": Mean(
        _proj2_fn, "proj2",
        symmetric=False, homogeneous=True, monotone=True, strict=False,
        spec="proj2",
    ),
}

# Catalog identifiers accepted by classical(), in a stable iteration order.
CLASSICAL_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def classical(name: str) -> Mean:
    """Look up a catalog mean by identifier.

    Accepts the names in CLASSICAL_NAMES plus the parameterized form
    "power:p" with a decimal literal p.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name.startswith("power:"):
        text = name[len("power:"):]
        try:
            p = float(text)
        except ValueError:
            raise InvalidMeanSpec(
                f"power mean needs a numeric exponent, got {text!r}",
                position=len("power:"),
            ) from None
        return power_mean(p)
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
