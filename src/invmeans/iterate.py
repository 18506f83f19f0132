"""Iteration of mean-type mappings (x, y) <- (K(x,y), L(x,y)).

When the pair is complementary to a strict mean M, the iterates squeeze
onto the diagonal and the common limit is the M-value of the starting
pair, because M is constant along the trajectory.  Non-convergence is a
legitimate outcome (the two coordinate selections fix every pair), so it
is reported as data rather than raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .means import _positive_finite
from .verify import ScanReport, _scan

__all__ = ["IterationTrace", "iterate_pair", "invariant_value_along_trajectory"]


def _relative_gap(x, y):
    """|x - y| / max(|x|, |y|) for one pair or elementwise over arrays of pairs."""
    # builtin abs: plain float arithmetic for the loop's scalar stop test
    return abs(x - y) / np.maximum(abs(x), abs(y))


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Trajectory of a mean-type mapping with convergence diagnostics.

    ``iterates`` has shape (iterations + 1, 2) with the starting pair in
    row 0.  ``limit`` is the midpoint of the final pair, meaningful to
    within ``final_gap``.  ``gap_monotone`` records whether the relative
    gap never increased along the way.
    """

    iterates: np.ndarray
    converged: bool
    limit: float
    iterations: int
    final_gap: float
    gap_monotone: bool

    @property
    def gaps(self) -> np.ndarray:
        """Relative gap |x_n - y_n| / max(x_n, y_n) at every step."""
        return _relative_gap(self.iterates[:, 0], self.iterates[:, 1])

    def order_estimate(self) -> float | None:
        """Empirical convergence order from the last three shrinking gaps.

        Uses log(g_n/g_{n-1}) / log(g_{n-1}/g_{n-2}); about 2 for the
        quadratically contracting classical pairs.  None when fewer than
        three positive, strictly decreasing gaps are available.
        """
        g = self.gaps
        g = g[g > 0.0]
        if g.size < 3:
            return None
        a, b, c = g[-3], g[-2], g[-1]
        if not (a > b > c):
            return None
        return float(math.log(c / b) / math.log(b / a))


def iterate_pair(pair, x0: float, y0: float, rel_stop: float = 1e-14,
                 max_iter: int = 100) -> IterationTrace:
    """Apply (x, y) <- (K(x, y), L(x, y)) until the gap closes.

    Stops when |x - y| / max(x, y) <= rel_stop or after max_iter steps,
    whichever comes first; the trace says which.  K and L are evaluated
    through their validating call, so a pair that leaves the positive
    quadrant raises rather than iterating on garbage.
    """
    x0 = float(x0)
    y0 = float(y0)
    if not _positive_finite((x0, y0)):
        raise DomainError("iteration requires a positive starting pair")
    if not (0.0 < float(rel_stop) < 1.0):
        raise ParameterError("rel_stop must lie in (0, 1)")
    if int(max_iter) < 1:
        raise ParameterError("max_iter must be at least 1")

    K, L = pair.K, pair.L
    x, y = x0, y0
    points = [(x, y)]
    steps = 0
    while _relative_gap(x, y) > rel_stop and steps < int(max_iter):
        x, y = float(K(x, y)), float(L(x, y))
        points.append((x, y))
        steps += 1
    iterates = np.asarray(points, dtype=float)
    gaps = _relative_gap(iterates[:, 0], iterates[:, 1])
    final_gap = float(gaps[-1])
    monotone = bool(np.all(gaps[1:] <= gaps[:-1] * (1.0 + 1e-12)))
    return IterationTrace(
        iterates=iterates,
        converged=final_gap <= rel_stop,
        limit=0.5 * (x + y),
        iterations=steps,
        final_gap=final_gap,
        gap_monotone=monotone,
    )


def invariant_value_along_trajectory(pair, trace: IterationTrace,
                                     rel_tol: float = 1e-10) -> ScanReport:
    """Check that M(x_n, y_n) is constant along an iteration trajectory.

    For a genuinely complementary pair the target value never moves; a
    drifting value is exactly how a non-complementary pair betrays itself
    after one step.  ``rel_tol`` must lie in (0, 1).  Witness layout:
    (n, x_n, y_n, M(x_n, y_n)).
    """
    if not (0.0 < float(rel_tol) < 1.0):
        raise ParameterError("rel_tol must lie in (0, 1)")

    def measure(xs, ys):
        values = np.asarray(pair.target.fn(xs, ys), dtype=float)
        viol = np.abs(values - values[0]) / abs(values[0])
        return viol, (np.arange(values.size), xs, ys, values)

    return _scan(float(rel_tol), (trace.iterates[:, 0], trace.iterates[:, 1]),
                 measure, pair.target.fn)
