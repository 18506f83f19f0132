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
from .verify import ScanReport

__all__ = ["IterationTrace", "iterate_pair", "invariant_value_along_trajectory"]


def _relative_gaps(iterates: np.ndarray) -> np.ndarray:
    x = iterates[:, 0]
    y = iterates[:, 1]
    return np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))


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
        return _relative_gaps(self.iterates)

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
    if not (x0 > 0.0 and y0 > 0.0):
        raise DomainError("iteration requires a positive starting pair")
    if not (0.0 < float(rel_stop) < 1.0):
        raise ParameterError("rel_stop must lie in (0, 1)")
    if int(max_iter) < 1:
        raise ParameterError("max_iter must be at least 1")

    def gap(a: float, b: float) -> float:
        return abs(a - b) / max(abs(a), abs(b))

    K, L = pair.K, pair.L
    x, y = x0, y0
    points = [(x, y)]
    steps = 0
    while gap(x, y) > rel_stop and steps < int(max_iter):
        x, y = float(K(x, y)), float(L(x, y))
        points.append((x, y))
        steps += 1
    iterates = np.asarray(points, dtype=float)
    final_gap = gap(x, y)
    gaps = _relative_gaps(iterates)
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
    after one step.  Witness layout: (n, x_n, y_n, M(x_n, y_n)).
    """
    xs = trace.iterates[:, 0]
    ys = trace.iterates[:, 1]
    with np.errstate(all="ignore"):
        values = np.asarray(pair.target.fn(xs, ys), dtype=float)
        ref = values[0]
        viol = np.abs(values - ref) / abs(ref)
    ranked = np.where(np.isfinite(viol), viol, np.inf)
    idx = int(np.argmax(ranked))
    worst = float(ranked[idx])
    witness = (float(idx), float(xs[idx]), float(ys[idx]), float(values[idx]))
    return ScanReport(
        passed=worst <= rel_tol,
        worst_violation=worst,
        witness=witness,
        samples_checked=int(values.size),
    )
