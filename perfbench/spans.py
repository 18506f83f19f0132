"""In-memory span recorder for the traced benchmark run.

Spans are recorded on the benchmark's side of each layer boundary, never
inside the package: a traced subject is an ordinary ``Mean`` (or
``ConeSet``) whose ``fn`` (or ``membership``) is wrapped, so a traced
``check_*`` call nests verify -> complement (K, L, kernel) -> means
(catalog evaluator) without any change to ``src/``.
"""
from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from invmeans import NEAR_DIAGONAL_RTOL, MeanPair


class Tracer:
    """Spans as ``[layer, name, parent_index, start_ns, end_ns]`` rows.

    Besides spans it counts calls per span name.  With ``count_lanes`` it
    also counts, for catalog evaluators, the lanes evaluated and the lanes
    within ``NEAR_DIAGONAL_RTOL`` of the diagonal (the input property that
    picks the series branch over the quotient branch).  That count runs
    outside every span, so its cost lands in the caller's self time: a
    tracer whose self times are read must leave it off.  ``count_ns`` sums
    the time spent counting, so callers can take it out of their timings.
    """

    def __init__(self, count_lanes: bool = False):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts_lanes = count_lanes
        self.count_ns = 0
        self.lanes = 0
        self.near_lanes = 0

    def call(self, layer: str, name: str, fn, *args):
        span = [layer, name, self._stack[-1] if self._stack else -1,
                perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[4] = perf_counter_ns()
            self._stack.pop()
            self.calls[name] += 1

    def count_lanes(self, x, y) -> None:
        t0 = perf_counter_ns()
        with np.errstate(all="ignore"):
            hi = np.maximum(x, y)
            near = np.abs(np.subtract(x, y)) <= NEAR_DIAGONAL_RTOL * hi
        self.lanes += int(np.size(near))
        self.near_lanes += int(np.count_nonzero(near))
        self.count_ns += perf_counter_ns() - t0

    def self_ns(self) -> dict[str, int]:
        """Self time per layer: span duration minus time in child spans."""
        child = [0] * len(self.spans)
        for layer, _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (layer, _name, _parent, start, end) in enumerate(self.spans):
            out[layer] += end - start - child[i]
        return out


def traced_mean(tracer: Tracer, M, layer: str = "means", name: str | None = None):
    """Copy of ``M`` whose evaluator records a span; catalog means may count lanes."""
    fn = M.fn
    name = name or M.label
    if layer == "means" and tracer.counts_lanes:
        def wrapped(x, y):
            out = tracer.call(layer, name, fn, x, y)
            tracer.count_lanes(x, y)
            return out
    else:
        def wrapped(x, y):
            return tracer.call(layer, name, fn, x, y)
    return dataclasses.replace(M, fn=wrapped)


def traced_cone(tracer: Tracer, A):
    """Copy of the selection set ``A`` whose membership test records a span."""
    member = A.membership
    name = f"member:{A.name}"

    def wrapped(x, y):
        return tracer.call("projective", name, member, x, y)

    return dataclasses.replace(A, membership=wrapped)


def traced_pair(tracer: Tracer, pair, target=None) -> MeanPair:
    """Pair whose K and L record complement spans; ``target`` replaces the target."""
    return MeanPair(
        traced_mean(tracer, pair.K, "complement", "K"),
        traced_mean(tracer, pair.L, "complement", "L"),
        target=pair.target if target is None else target,
        t=pair.t,
        spec=pair.spec,
    )
