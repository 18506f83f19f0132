"""Iteration of mean-type mappings toward their invariant-mean limit."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im

A = im.classical("arithmetic")
G = im.classical("geometric")
H = im.classical("harmonic")
L = im.classical("logarithmic")


class TestClassicalIteration:
    def test_arithmetic_harmonic_reaches_the_geometric_mean(self):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        assert trace.converged
        assert trace.iterations <= 8
        assert_allclose(trace.limit, 2.0, rtol=1e-14)
        assert trace.final_gap <= 1e-14
        assert trace.gap_monotone

    def test_iterates_start_at_the_initial_pair(self):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        assert trace.iterates.shape == (trace.iterations + 1, 2)
        assert tuple(trace.iterates[0]) == (1.0, 4.0)

    def test_quadratic_contraction(self):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        order = trace.order_estimate()
        assert order is not None
        assert 1.7 <= order <= 2.3

    def test_agm_iteration(self):
        # arithmetic with geometric: the classical compound-mean iteration
        pair = im.MeanPair(A, G, target=G)
        trace = im.iterate_pair(pair, 1.0, 2.0)
        assert trace.converged
        assert_allclose(trace.limit, 1.4567910310469068, rtol=1e-13)

    def test_projections_fix_every_pair(self):
        pair = im.MeanPair(im.classical("proj1"), im.classical("proj2"),
                           target=A)
        trace = im.iterate_pair(pair, 1.0, 4.0, max_iter=25)
        assert not trace.converged
        assert trace.iterations == 25
        assert_allclose(trace.gaps, 0.75, rtol=0)

    def test_constructed_pair_limit_is_the_invariant_value(self):
        pair = im.general_pair(A, A, H, 0.5)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        assert trace.converged
        # invariance pins the limit to the starting value of the target
        assert abs(A(trace.limit, trace.limit) - 2.5) <= 1e-10


    @pytest.mark.parametrize("pair, max_iter", [
        (im.MeanPair(A, H, target=G), 100),
        (im.general_pair(L, G, H, 0.75), 100),
        (im.general_pair(A, A, H, 0.5), 2),
        (im.MeanPair(im.classical("proj1"), im.classical("proj2"), target=A), 5),
    ])
    def test_final_gap_is_the_last_gap(self, pair, max_iter):
        # the stop test, final_gap and gaps share one relative-gap function
        trace = im.iterate_pair(pair, 0.3, 7.0, max_iter=max_iter)
        assert np.array_equal(trace.final_gap, trace.gaps[-1])
        assert type(trace.final_gap) is float
        assert trace.converged == (trace.gaps[-1] <= 1e-14)


class TestTrajectoryInvariance:
    def test_target_constant_for_complementary_pairs(self):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        report = im.invariant_value_along_trajectory(pair, trace)
        assert report.passed
        values = G.fn(trace.iterates[:, 0], trace.iterates[:, 1])
        assert_allclose(values, 2.0, rtol=1e-13)

    def test_target_constant_for_general_pairs(self):
        for t in (0.25, 0.5, 0.75):
            pair = im.general_pair(L, G, H, t)
            trace = im.iterate_pair(pair, 0.3, 7.0)
            report = im.invariant_value_along_trajectory(pair, trace)
            assert report.passed, (t, report)

    def test_mismatched_pair_is_detected(self):
        # arithmetic with geometric does not leave G invariant
        pair = im.MeanPair(A, G, target=G)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        report = im.invariant_value_along_trajectory(pair, trace)
        assert not report.passed
        # after one step the target value has visibly moved
        n, x1, y1, value = report.witness
        assert n >= 1.0
        assert abs(value - 2.0) / 2.0 > 1e-3

    def test_raising_target_becomes_a_failed_report(self):
        def explode(x, y):
            raise ValueError("refuses arrays")

        pair = im.MeanPair(A, H, target=im.Mean(explode, "broken"))
        trace = im.iterate_pair(pair, 1.0, 4.0)
        report = im.invariant_value_along_trajectory(pair, trace)
        assert not report.passed
        assert report.worst_violation == np.inf
        assert report.detail == "evaluation failed: refuses arrays"
        assert report.witness == (1.0, 4.0)
        assert report.samples_checked == trace.iterations + 1

    def test_nan_target_is_a_failure_with_detail(self):
        def patchy(x, y):
            return np.where(x > 2.0, np.nan, np.sqrt(x) * np.sqrt(y))

        pair = im.MeanPair(A, H, target=im.Mean(patchy, "patchy"))
        trace = im.iterate_pair(pair, 1.0, 4.0)
        report = im.invariant_value_along_trajectory(pair, trace)
        assert not report.passed
        assert report.worst_violation == np.inf
        assert report.detail == "non-finite evaluation at witness"
        assert report.witness[:3] == (1.0, 2.5, 1.6)

    @pytest.mark.parametrize("rel_tol", [-1.0, 0.0, 1.0, 2.0, np.nan, np.inf])
    def test_rel_tol_range(self, rel_tol):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 1.0, 4.0)
        with pytest.raises(im.ParameterError, match="rel_tol"):
            im.invariant_value_along_trajectory(pair, trace, rel_tol=rel_tol)


class TestRandomStarts:
    def test_strict_constructions_converge_to_the_target_value(self):
        # fifty random starting pairs across strict-mean constructions
        rng = np.random.default_rng(42)
        strict = [A, G, H, L]
        for _ in range(50):
            M = strict[rng.integers(len(strict))]
            C = strict[rng.integers(len(strict))]
            D = strict[rng.integers(len(strict))]
            t = float(rng.uniform(0.05, 0.95))
            x0 = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            y0 = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            pair = im.general_pair(M, C, D, t)
            trace = im.iterate_pair(pair, x0, y0, rel_stop=1e-12,
                                    max_iter=200)
            label = (M.label, C.label, D.label, t, x0, y0)
            assert trace.converged, label
            assert trace.final_gap <= 1e-12, label
            target = M(x0, y0)
            assert abs(M(trace.limit, trace.limit) - target) <= 1e-9 * target, label

    def test_gap_shrinks_monotonically_for_strict_constructions(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = float(rng.uniform(0.1, 0.9))
            pair = im.general_pair(A, G, H, t)
            x0 = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            y0 = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            trace = im.iterate_pair(pair, x0, y0, rel_stop=1e-12, max_iter=200)
            assert trace.gap_monotone, (t, x0, y0)


class TestInputValidation:
    def test_positive_start_required(self):
        pair = im.MeanPair(A, H, target=G)
        with pytest.raises(im.DomainError, match="positive starting pair"):
            im.iterate_pair(pair, -1.0, 2.0)
        with pytest.raises(im.DomainError, match="positive starting pair"):
            im.iterate_pair(pair, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_finite_start_required(self, bad):
        pair = im.MeanPair(A, H, target=G)
        with pytest.raises(im.DomainError, match="positive starting pair"):
            im.iterate_pair(pair, bad, 1.0)
        with pytest.raises(im.DomainError, match="positive starting pair"):
            im.iterate_pair(pair, 1.0, bad)

    def test_rel_stop_range(self):
        pair = im.MeanPair(A, H, target=G)
        with pytest.raises(im.ParameterError, match="rel_stop"):
            im.iterate_pair(pair, 1.0, 2.0, rel_stop=0.0)
        with pytest.raises(im.ParameterError, match="rel_stop"):
            im.iterate_pair(pair, 1.0, 2.0, rel_stop=1.5)

    def test_max_iter_range(self):
        pair = im.MeanPair(A, H, target=G)
        with pytest.raises(im.ParameterError, match="max_iter"):
            im.iterate_pair(pair, 1.0, 2.0, max_iter=0)

    def test_degenerate_start_converges_immediately(self):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 3.0, 3.0)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.limit == 3.0

    def test_order_estimate_absent_for_short_runs(self):
        pair = im.MeanPair(A, H, target=G)
        trace = im.iterate_pair(pair, 3.0, 3.0)
        assert trace.order_estimate() is None
