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

Each lane computes one branch.  The logarithmic and Stolarsky means
take one log-gap formula on every lane (``_gap_log``): log(hi/lo) as
log1p((hi - lo)/lo), which keeps full relative accuracy from the
diagonal to the widest gap, so neither needs a near-diagonal series.
What is left is an overflow patch (``_patch``, computed on its own
lanes only, gathered out and scattered back), which takes the log
difference where the arguments are more than 2**945 apart, and the
exact diagonal: its log gap of 0 is guarded with 1.0, and a clamp to
[min, max] returns the argument itself there.  The Stolarsky mean keeps
every expm1 argument <= 0 by factoring out hi for a positive parameter
and lo for a negative one, so it stays finite at any ratio.  The other
exceptional branches are patched the same way: the power mean's log
ratio where its arguments are more than 2**1000 apart, its limits at 0
and inf, the halved sum of the arithmetic mean where the sum overflows
and the tiny-argument form of the harmonic mean where it underflows
(and, in ``multivar``, the scaled form of the n-ary arithmetic mean).
Scans sample log-uniform pairs, so those lanes are rare.

A scalar call takes the same path: ``_patch`` replaces a 0-d result
whole.  The power mean takes one power per lane: the term of the
argument it factors out is exactly 1.  For |p| < 1e-2 it takes an
expm1/log1p form instead, chosen once when it is built, which keeps its
relative accuracy as p goes to 0.

An evaluator writes only into arrays it allocated itself, never into
its arguments or into what another evaluator returned (``proj1`` returns
a view of its argument, ``_pow(x, 1.0)`` returns x).  A temporary that
is used once is updated in place by augmented operators (``w *= t``),
which also serve the scalar path: on a numpy scalar they rebind the
name, so a 0-d call takes no extra branch.  The temporary so updated
has the broadcast shape of the arguments (a (1,) array cannot take an
(n,) update in place).  ``out=`` arguments, which a numpy scalar does
not take, are left to the array-only code of ``_patch``, ``_blockwise``
and the scans.

Input from outside is read in one place.  ``_read`` converts a
parameter and refuses a value that does not convert the same way as one
out of range, with the ``MeansError`` of its check; a validated call
(``Mean.__call__``, which ``complement.RealMean`` shares, and
``_floats`` for the one-argument calls) refuses arguments that do not
convert, lie outside its domain or do not broadcast with a
``DomainError``.

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

# Relative gap |x - y| / max(x, y) under which a pair counts as near the
# diagonal.  No evaluator branches on it any more (the log-gap formula is
# accurate at every gap); it is kept as a public name for the benchmark's
# share of near-diagonal lanes.
NEAR_DIAGONAL_RTOL = 1e-8

# Lanes per block of a blocked evaluation: 64 KB per float64 array, so the
# dozen or so temporaries of a quotient-form evaluator or a pair kernel
# fit in a 2 MB per-core L2 cache together.
_BLOCK = 8192


# how a value from outside fails to convert: the errors of float(),
# int(), np.asarray() and tuple unpacking
_UNREADABLE = (TypeError, ValueError, OverflowError, IndexError)


def _read(value, kind, ok, message: str, error=ParameterError):
    """``kind(value)`` when it converts and passes ``ok``, else ``error(message)``.

    The one reader of a parameter from outside: a value that does not
    convert is refused the same way as one that fails ``ok``.
    ``message`` may quote the value with ``{!r}``: the converted value,
    or the value as given when it does not convert.  ``error`` is
    DomainError where the value is a point of a mean's domain (a
    starting pair, a sample set).
    """
    try:
        value = kind(value)
    except _UNREADABLE:
        pass
    else:
        if ok(value):
            return value
    raise error(message.format(value))


def _float_pair(pair) -> tuple[float, float]:
    a, b = pair  # exactly two entries
    return float(a), float(b)


def _unit(v) -> bool:
    """Whether 0 < v < 1, the range of t, of a relative tolerance and of a stop gap."""
    return 0.0 < v < 1.0


def _floats(value, label: str):
    """``value`` as a float array; a DomainError naming ``label`` when it does not convert."""
    try:
        return np.asarray(value, dtype=float)
    except _UNREADABLE:
        raise DomainError(f"{label}: arguments must be positive reals") from None


def _positive_finite(v) -> bool:
    """Whether every entry of v is a positive finite real: 0, +-inf and nan fail."""
    v = np.asarray(v)
    return ((v > 0.0) & (v < np.inf)).all()


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

    ``fn`` is the raw evaluator: it takes float64 arrays or scalars
    (calling the mean converts its arguments to those and validates
    them) and checks nothing.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    symmetric: bool = False
    homogeneous: bool = False
    monotone: bool = False
    strict: bool = False
    spec: str | None = None

    # what a call admits: the test each converted argument must pass, and
    # the domain its error names (``complement.RealMean`` sets its own)
    _admits = staticmethod(_positive_finite)
    _domain = "positive reals"

    def __call__(self, x, y):
        # the two conversions written out, not a loop or a helper call,
        # so a scalar call pays no extra Python call for them
        try:
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
        except _UNREADABLE:
            x = y = math.nan  # refused below, as a value outside the domain
        if not (self._admits(x) and self._admits(y)):
            raise DomainError(f"{self.label}: arguments must be {self._domain}")
        if x.shape != y.shape:  # a same-shape call pays one comparison
            try:
                np.broadcast_shapes(x.shape, y.shape)
            except ValueError:
                raise DomainError(f"{self.label}: argument shapes {x.shape} and "
                                  f"{y.shape} do not broadcast") from None
        out = self.fn(x, y)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def __repr__(self) -> str:
        return f"Mean({self.label})"


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
    """x**t computed as exp(t*log x), uniform over the positive range; t != 0.

    At t = 1 it is x itself, not a copy.
    """
    if t == 1.0:
        return x
    w = np.log(x)
    w *= t
    return np.exp(w)


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
    if np.count_nonzero(mask):  # one pass, cheaper than mask.any()
        lanes = np.nonzero(mask)
        # the shape test keeps the common same-shape columns off the
        # slower broadcast_to path
        out[lanes] = fn(*(c[lanes] if getattr(c, "shape", None) == out.shape
                          else np.broadcast_to(c, out.shape)[lanes] for c in cols))
    return out


# A quotient of two arguments, or of their gap by the lesser, leaves the
# normal range once they are about 2**1000 (1e301) apart; there the
# divisor is raised by, or to, _FAR times the greater argument, which
# keeps the quotient finite.  hi*_FAR is normal for every hi above
# 2**-22, which keeps the raise off numpy's slow subnormal path on the
# lanes of any scan
_FAR = 2.0 ** -1000


def _log_ratio(a, b):
    # log(a/b) where a/b would leave the normal range; the two logs are
    # at least 650 apart there, so their difference does not cancel
    return np.log(a) - np.log(b)


def _gap_log(hi, lo, d):
    """log(hi/lo) for d = hi - lo, as log1p(d/lo) on every lane; 1.0 where d == 0.

    d is exact where hi <= 2*lo and carries one rounding elsewhere, so
    log1p(d/lo) keeps full relative accuracy at every gap, down to the
    diagonal.  The divisor is lo + hi*_FAR, which rounds to lo unless
    the arguments are more than 2**946 apart and keeps d/lo finite
    beyond; the lanes whose log passes 650, below log(2**945), are
    patched with log(hi) - log(lo).  A lane with hi = inf stays nan
    (inf/inf).  On the exact diagonal the log gap is 0 and a quotient by
    it 0/0: there it is guarded with 1.0 (patched on the d == 0 lanes
    only, so (0, 0) stays nan), and the caller's clamp to [lo, hi]
    returns the argument itself.
    """
    g = hi * _FAR
    g += lo
    w = np.log1p(d / g)
    w = _patch(w, w > 650.0, _log_ratio, hi, lo)
    return _patch(w, d == 0.0, _guarded, w)


def _guarded(w):
    # the diagonal's log gap, 0 (or nan at (0, 0)), plus the guard
    return w + 1.0


@_blockwise
def _logmean(x, y):
    # (x - y)/(log x - log y), extended by continuity across the diagonal.
    # The quotient runs on log1p of the relative gap (_gap_log), which is
    # fully accurate however close the arguments are.  A mean lies in
    # [lo, hi], and the clamp to it returns the argument itself on the
    # guarded diagonal and undoes a rounding an ulp outside where the
    # arguments are an ulp or two apart; nan stays nan
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    m = hi - lo
    m /= _gap_log(hi, lo, m)
    return np.minimum(np.maximum(m, lo), hi)


def _arithmetic_fn(x, y):
    # 0.5 * (x + y) never drops below min(x, y), not even for subnormal
    # arguments, but the sum overflows to inf once it passes DBL_MAX (numpy
    # still warns about that).  Only those lanes are redone as
    # 0.5*x + 0.5*y, where halving arguments that large is exact.  The
    # mask is m == inf, not np.isinf(m): on a scalar call the comparison
    # costs a tenth of the ufunc, and positive arguments never give -inf
    m = x + y
    m *= 0.5
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
        def factor(lr):
            return np.exp(np.log1p(0.5 * np.expm1(p * lr)) / p)
    else:
        # the term of b itself, (b/b)**p, is exactly 1.0 on finite nonzero
        # b, so it costs no power; on the other lanes (b = 0, inf or nan)
        # the result is patched with b below or is nan anyway
        def factor(lr):
            lr *= p
            f = np.exp(lr)
            f += 1.0
            f *= 0.5
            return _pow(f, 1.0 / p)

    def fn(x, y):
        # factor out b = max(x, y) (min for p < 0) so the power stays in
        # (0, 1], and take r = o/b for the other argument o.  Where the
        # arguments lie more than 1/_FAR apart r could leave the normal
        # range (underflow for p > 0, overflow for p < 0): there the
        # lesser argument is raised to _FAR times the greater, which keeps
        # r and its log finite, and log r is patched with log o - log b.
        # Where b is 0 or inf the factored form breaks down (nan, 0 or
        # inf) and the mean's limit is b itself
        b, o = big(x, y), other(x, y)
        hi, lo = (b, o) if p > 0 else (o, b)
        floor = hi * _FAR
        lo = np.maximum(lo, floor)
        lr = _patch(np.log(lo / hi if p > 0 else hi / lo), lo == floor, _log_ratio, o, b)
        f = factor(lr)  # lr is a fresh array, which factor may overwrite
        f *= b
        return _patch(f, (b == 0.0) | (b == np.inf), lambda b: b, b)

    return _blockwise(fn)


def power_mean(p: float) -> Mean:
    """Power mean ((x**p + y**p)/2)**(1/p) for finite p; p = 0 is geometric."""
    p = _read(p, float, math.isfinite, "power mean requires a finite exponent, got {!r}")
    if p == 0.0:
        return _REGISTRY["geometric"]
    return _catalog(_power_fn(p), f"power:{p!r}")


def stolarsky(r: float, s: float) -> Mean:
    """Difference mean ((s/r)*(x**r - y**r)/(x**s - y**s))**(1/(r - s)).

    Requires r != s and r, s both finite and nonzero.  Special cases
    worth knowing: (2, 1) is the arithmetic mean, (1, -1) the geometric
    mean, and (3/2, 1/2) the Heronian mean (x + sqrt(x*y) + y)/3.
    """
    r, s = (_read(v, float, math.isfinite, "stolarsky mean requires finite r and s")
            for v in (r, s))
    if r == s:
        raise ParameterError("stolarsky mean requires r != s")
    if r == 0.0 or s == 0.0:
        raise ParameterError("stolarsky mean requires nonzero r and s")
    q = 1.0 / (r - s)
    coeff = abs(s / r)
    nr, ns = -abs(r), -abs(s)
    # With w = log(hi/lo), hi**a - lo**a is -hi**a*expm1(-a*w) for a > 0
    # and lo**a*expm1(a*w) for a < 0: every expm1 argument is -|a|*w <= 0,
    # so none overflows however far apart the arguments are.  The factored
    # powers leave hi**(r - s)*exp(-k*(r - s)*w), k = -min(r, s)/|r - s|
    # the share of a negative parameter, so the mean is hi*exp(-k*w) times
    # the 1/(r - s) power of the quotient.  That factor is hi when both
    # parameters are positive and lo when both are negative; for mixed
    # signs it is hi*exp(-k*w) for k <= 1/2 and sqrt(hi)*sqrt(lo)*
    # exp((1/2 - k)*w) above, which keeps exp in range
    if r > 0.0 and s > 0.0:
        base = shift = None
    elif r < 0.0 and s < 0.0:
        base, shift = (lambda hi, lo: lo), 0.0
    else:
        k = -min(r, s) / abs(r - s)
        base, shift = ((lambda hi, lo: hi), k) if k <= 0.5 else (_geometric_fn, k - 0.5)
    # with two negative parameters the factor is >= 1, so its product with
    # lo can pass DBL_MAX where lo is near it: on the diagonal, whose
    # guarded log gap 1.0 gives a factor M(e, 1) > 1, and where the mean
    # rounds up to DBL_MAX.  The clamp to [lo, hi] returns hi on those
    # lanes, so that overflow is silenced
    quiet = r < 0.0 and s < 0.0

    def fn(x, y):
        # the clamp of _logmean
        hi = np.maximum(x, y)
        lo = np.minimum(x, y)
        w = _gap_log(hi, lo, hi - lo)
        core = np.expm1(nr * w)
        core *= coeff
        core /= np.expm1(ns * w)
        if base is None:
            out = _pow(core, q)
            out *= hi
        else:
            out = np.log(core)
            out *= q
            out -= shift * w
            out = np.exp(out)
            if quiet:
                with np.errstate(over="ignore"):
                    out *= base(hi, lo)
            else:
                out *= base(hi, lo)
        return np.minimum(np.maximum(out, lo), hi)

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
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise InvalidMeanSpec(f"unknown mean identifier {name!r}", position=0) from None


@dataclass(frozen=True)
class TraceFn:
    """One-variable restriction f(x) = M(x, 1) of a homogeneous mean.

    For homogeneous M the trace determines the mean: M(x, y) = y*f(x/y).
    """

    mean: Mean

    def __call__(self, x):
        x = _floats(x, self.mean.label)
        return self.mean(x, np.ones_like(x))


def trace_of(M: Mean) -> TraceFn:
    """Trace of a homogeneous mean; raises DomainError otherwise."""
    if not M.homogeneous:
        raise DomainError(f"{M.label}: trace requires the homogeneous flag")
    return TraceFn(M)
