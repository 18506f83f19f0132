"""Iteration of mean-type mappings (x, y) <- (K(x,y), L(x,y)).

When the pair is complementary to a strict mean M, the iterates squeeze
onto the diagonal and the common limit is the M-value of the starting
pair, because M is constant along the trajectory.  Non-convergence is a
legitimate outcome (the two coordinate selections fix every pair), so it
is reported as data rather than raised.  The verify module's
``invariant_value_along_trajectory`` checks that M stays constant along a
trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .means import _float_pair, _positive_finite, _read, _unit

__all__ = ["IterationTrace", "iterate_pair"]


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
    x, y = _read((x0, y0), _float_pair, _positive_finite,
                 "iteration requires a positive starting pair", DomainError)
    rel_stop = _read(rel_stop, float, _unit, "rel_stop must lie in (0, 1)")
    max_iter = _read(max_iter, int, lambda n: n >= 1, "max_iter must be at least 1")

    K, L = pair.K, pair.L
    points = [(x, y)]
    steps = 0
    while _relative_gap(x, y) > rel_stop and steps < max_iter:
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
