"""The blocked scan engine: block edges, the running argmax, and mutations.

Every scan streams its lanes through blocks of ``means._BLOCK`` = 8,192
lanes and keeps a running worst violation.  These tests plant violations
at block edges and across blocks, and break subjects only inside the last,
partial block, so an engine that drops, misorders or mis-ranks a block
fails here.  The default scan set has 45,080 lanes: five full blocks and
a partial one of 4,120.
"""

import dataclasses
import math

import numpy as np
import pytest

import invmeans as im
from invmeans.means import _BLOCK
from invmeans.verify import _pair_samples, _scan, _trace_samples

A = im.classical("arithmetic")
G = im.classical("geometric")
H = im.classical("harmonic")
CFG = im.DEFAULT_CONFIG
X, Y = (np.array(a) for a in _pair_samples(CFG))
N = X.size
TAIL = N % _BLOCK
# 16,384 trace lanes: two blocks, the second partial for adjacent pairs
TRACE_CFG = im.ScanConfig(points_per_axis=128)


def test_the_default_scan_set_ends_in_a_partial_block():
    assert N == 45080 and N // _BLOCK == 5 and TAIL == 4120


def planted(*lanes):
    """Arithmetic mean, except F = factor * max(x, y) at the given (lane, factor)s.

    A factor of 2 gives a violation of exactly 1 (a nan factor a nan
    value); lanes are recognised by their (x, y) values.
    """
    def fn(a, b):
        v = A.fn(a, b)
        for j, factor in lanes:
            v = np.where((a == X[j]) & (b == Y[j]), factor * np.maximum(a, b), v)
        return v

    return im.Mean(fn, "planted")


def lane_of(report) -> int:
    (j,) = np.flatnonzero((X == report.witness[0]) & (Y == report.witness[1]))
    return int(j)


class TestRunningArgmax:
    @pytest.mark.parametrize("j", [0, _BLOCK - 1, _BLOCK, N - 1])
    def test_a_violation_at_a_block_edge_is_found(self, j):
        report = im.check_meanness(planted((j, 2.0)), CFG)
        assert not report.passed
        assert report.worst_violation == 1.0
        assert lane_of(report) == j
        assert report.witness[2] == 2.0 * max(X[j], Y[j])
        assert report.samples_checked == N

    @pytest.mark.parametrize("j", [0, _BLOCK - 1, _BLOCK, N - 1])
    def test_an_invariance_break_at_a_block_edge_is_found(self, j):
        # A and H are G-complementary; doubling K at one lane breaks it
        report = im.check_invariance(im.MeanPair(planted((j, 2.0)), H, target=G), CFG)
        assert not report.passed
        assert lane_of(report) == j
        assert report.samples_checked == N

    @pytest.mark.parametrize("first, second", [(100, 20000), (_BLOCK, N - 1)])
    def test_a_tie_across_blocks_keeps_the_earlier_lane(self, first, second):
        report = im.check_meanness(planted((first, 2.0), (second, 2.0)), CFG)
        assert report.worst_violation == 1.0
        assert lane_of(report) == first

    def test_a_later_block_with_a_larger_violation_wins(self):
        report = im.check_meanness(planted((100, 2.0), (N - 1, 3.0)), CFG)
        assert report.worst_violation == 2.0
        assert lane_of(report) == N - 1

    def test_nan_in_a_later_block_beats_an_earlier_finite_maximum(self):
        report = im.check_meanness(planted((100, 3.0), (30000, math.nan)), CFG)
        assert report.worst_violation == math.inf
        assert report.detail == "non-finite evaluation at witness"
        assert lane_of(report) == 30000

    def test_the_earliest_non_finite_lane_is_the_witness(self):
        report = im.check_meanness(planted((30000, math.nan), (N - 1, math.nan)), CFG)
        assert report.worst_violation == math.inf
        assert lane_of(report) == 30000



def _blocked_scan(*blocks):
    """``_scan`` over a synthetic measure that yields the given violation blocks.

    Each lane's witness is its index over all blocks.
    """
    v = np.concatenate([np.asarray(b, dtype=float) for b in blocks])
    lane = np.arange(v.size, dtype=float)

    def measure(v, lane):
        start = 0
        for b in blocks:
            part = slice(start, start + len(b))
            start += len(b)
            yield v[part], (lane[part],)

    return _scan(1.0, (v, lane), measure)


class TestRankingPaths:
    # a block of finite violations is reduced by argmax alone; a block
    # with a nan, +inf or -inf lane ranks every such lane as +inf

    def test_a_lone_minus_inf_among_finite_lanes_is_the_witness(self):
        report = _blocked_scan([0.5, 3.0, -math.inf, 2.0])
        assert report == im.ScanReport(False, math.inf, (2.0,), 4,
                                       "non-finite evaluation at witness")

    @pytest.mark.parametrize("later", [math.nan, math.inf])
    def test_an_earlier_minus_inf_beats_a_later_non_finite_block(self, later):
        report = _blocked_scan([0.5, -math.inf, 2.0], [later, 1.0])
        assert report.worst_violation == math.inf
        assert report.witness == (1.0,)

    @pytest.mark.parametrize("first", [math.nan, math.inf, -math.inf])
    def test_a_later_minus_inf_loses_to_an_earlier_non_finite_block(self, first):
        report = _blocked_scan([0.5, first], [-math.inf, 1.0])
        assert report.witness == (1.0,)

    def test_a_tie_keeps_the_earlier_lane_on_either_path(self):
        # a finite tie across two all-finite blocks, a non-finite tie
        # across two mixed blocks with an all-finite block between them,
        # and a larger finite block after a mixed one: the earlier wins
        report = _blocked_scan([0.5, 2.0, 1.0], [2.0, -3.0, 0.0])
        assert (report.worst_violation, report.witness) == (2.0, (1.0,))
        report = _blocked_scan([0.5, math.nan], [1e300, 2.0], [math.inf, 4.0])
        assert (report.worst_violation, report.witness) == (math.inf, (1.0,))
        report = _blocked_scan([2.0, -math.inf], [1e308, 2.0])
        assert (report.worst_violation, report.witness) == (math.inf, (1.0,))

    def test_all_finite_blocks_give_the_single_argmax(self):
        v = np.random.default_rng(3).normal(size=3 * _BLOCK + 5)
        blocks = [v[i:i + _BLOCK] for i in range(0, v.size, _BLOCK)]
        report = _blocked_scan(*blocks)
        assert report.witness == (float(np.argmax(v)),)
        assert report.worst_violation == v.max()


class TestEmptyBlocks:
    def test_a_block_may_keep_no_lanes(self):
        # blocks of 3, 0 and 2 violations: the empty one adds no lanes and
        # does not disturb the running maximum
        v = np.array([0.5, 2.0, 1.0, 3.0, -1.0])

        def measure(v):
            for part in (v[:3], v[3:3], v[3:]):
                yield part, (part,)

        report = _scan(1.0, (v,), measure)
        assert report == im.ScanReport(False, 3.0, (3.0,), 5, "")

    def test_a_raise_reruns_the_measure_one_lane_at_a_time(self):
        # the witness is the first lane on which the measure itself raises,
        # found from fresh one-element copies of the lanes
        v = np.array([0.5, 2.0, -1.0, 3.0, -2.0])
        seen = []

        def measure(v):
            seen.append(v)
            if np.any(v < 0.0):
                raise ValueError("negative")
            yield v, (v,)

        report = _scan(1.0, (v,), measure)
        assert report == im.ScanReport(False, math.inf, (-1.0,), 5,
                                       "evaluation failed: negative")
        assert [a.tolist() for a in seen[1:]] == [[0.5], [2.0], [-1.0]]
        assert not any(np.shares_memory(a, v) for a in seen[1:])

    def test_a_strict_scan_whose_blocks_keep_no_lanes_passes_empty(self):
        # on [1, 1.05] every pair is within |log(x/y)| < 0.1, so each of the
        # two blocks keeps zero lanes for the strict scan
        cfg = im.ScanConfig(domain=(1.0, 1.05), points_per_axis=32)
        assert _pair_samples(cfg)[0].size > _BLOCK
        report = im.check_flags(im.Mean(A.fn, "strict-only", strict=True), cfg)
        assert report == im.ScanReport(True, 0.0, (), 0, "")


class TestSamplesChecked:
    def test_pair_scans_count_every_lane(self):
        assert im.check_meanness(A, CFG).samples_checked == N
        assert im.check_invariance(im.MeanPair(A, H, target=G), CFG).samples_checked == N
        lower = im.builtin_cone("lower")
        assert im.check_exchange_property(lower, cfg=CFG).samples_checked == N

    def test_flags_count_three_scans_and_the_kept_strict_lanes(self):
        kept = np.count_nonzero(np.abs(np.log(X / Y)) >= 0.1)
        assert im.check_flags(A, CFG).samples_checked == 3 * N + kept

    def test_trace_scans_count_their_samples(self):
        x = _trace_samples(TRACE_CFG)
        assert x.size == 2 * _BLOCK
        off_one = np.count_nonzero(np.abs(x - 1.0) > 1e-9)
        assert im.check_trace_meanness(A, TRACE_CFG).samples_checked == off_one
        assert im.check_monotone_trace(A, TRACE_CFG).samples_checked == x.size

    def test_trace_samples_are_a_read_only_geometric_axis(self):
        x = _trace_samples(TRACE_CFG)
        lo, hi = TRACE_CFG.domain
        assert np.array_equal(x, np.geomspace(lo, hi, TRACE_CFG.points_per_axis ** 2))
        assert not x.flags.writeable

    def test_nary_scan_counts_every_vector(self):
        report = im.check_nary_meanness(im.nary_arithmetic(3), CFG)
        assert report.passed
        assert report.samples_checked == 11 * CFG.points_per_axis ** 2


class TestMutations:
    """One deliberately broken subject per check, broken only in the last block."""

    def test_a_flag_broken_only_in_the_last_partial_block_is_falsified(self):
        # symmetric except where the second argument is one of the last
        # block's x values, which only the swapped call of that block passes
        tail_x = X[N - TAIL:]

        def fn(a, b):
            return np.where(np.isin(b, tail_x), 0.6 * a + 0.4 * b, A.fn(a, b))

        report = im.check_flags(dataclasses.replace(A, fn=fn), CFG)
        assert report.detail == "flag falsified: symmetric"
        assert lane_of(report) >= N - TAIL

    def test_a_broken_trace_is_caught_at_the_last_adjacent_pair(self):
        x = _trace_samples(TRACE_CFG)
        sink = 0.5 * (x[-2] + 1.0) * (1.0 - 1e-6)

        def fn(a, b):
            return np.where(a == x[-1], sink, A.fn(a, b))

        F = dataclasses.replace(A, fn=fn)
        report = im.check_monotone_trace(F, TRACE_CFG)
        assert not report.passed
        assert report.witness[:2] == (x[-2], x[-1])
        assert report.witness[3] == sink

    def test_a_trace_leaving_the_envelope_at_the_last_lane_is_caught(self):
        x = _trace_samples(TRACE_CFG)

        def fn(a, b):
            return np.where(a == x[-1], 2.0 * a, A.fn(a, b))

        report = im.check_trace_meanness(dataclasses.replace(A, fn=fn), TRACE_CFG)
        assert not report.passed
        assert report.witness == (x[-1], 2.0 * x[-1])

    def test_a_broken_nary_mean_is_caught_at_the_last_vector(self):
        seen = []

        def recording(xs):
            seen.append(np.array(xs))
            return np.mean(xs, axis=0)

        im.check_nary_meanness(im.NaryMean(recording, 3, "recording"), CFG)
        xs = np.concatenate(seen, axis=1)
        assert xs.shape[1] > _BLOCK
        last = xs[:, -1]

        def broken(xs):
            hit = np.all(xs == last[:, None], axis=0)
            return np.where(hit, 2.0 * xs.max(axis=0), np.mean(xs, axis=0))

        report = im.check_nary_meanness(im.NaryMean(broken, 3, "broken"), CFG)
        assert not report.passed
        assert report.worst_violation == 1.0
        assert report.witness == (*last, 2.0 * last.max())
