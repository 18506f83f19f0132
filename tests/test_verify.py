"""Scan machinery: determinism, witness soundness, and failure reporting."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im
from invmeans.verify import _pair_samples

A = im.classical("arithmetic")
H = im.classical("harmonic")
G = im.classical("geometric")

CFG = im.ScanConfig(points_per_axis=16)


def _explode(x, y):
    raise ValueError("refuses arrays")


class TestScanConfig:
    def test_defaults(self):
        cfg = im.ScanConfig()
        assert cfg.domain == (1e-6, 1e6)
        assert cfg.points_per_axis == 64
        assert cfg.rel_tol == 1e-11
        assert cfg.seed == 0
        assert im.DEFAULT_CONFIG == cfg

    def test_coercion(self):
        cfg = im.ScanConfig(domain=(1, 100), points_per_axis=10.0, seed=3.0)
        assert cfg.domain == (1.0, 100.0)
        assert cfg.points_per_axis == 10
        assert cfg.seed == 3

    def test_domain_validation(self):
        with pytest.raises(im.ParameterError, match="0 < lower < upper"):
            im.ScanConfig(domain=(1e3, 1e-3))
        with pytest.raises(im.ParameterError, match="0 < lower < upper"):
            im.ScanConfig(domain=(0.0, 1.0))
        with pytest.raises(im.ParameterError, match="0 < lower < upper"):
            im.ScanConfig(domain=(1.0, math.inf))

    def test_points_validation(self):
        with pytest.raises(im.ParameterError, match="at least 8"):
            im.ScanConfig(points_per_axis=4)

    def test_tolerance_validation(self):
        with pytest.raises(im.ParameterError, match=r"rel_tol"):
            im.ScanConfig(rel_tol=0.0)
        with pytest.raises(im.ParameterError, match=r"rel_tol"):
            im.ScanConfig(rel_tol=2.0)

    def test_seed_validation(self):
        with pytest.raises(im.ParameterError, match="non-negative"):
            im.ScanConfig(seed=-1)

    def test_hashable_for_sample_caching(self):
        assert hash(im.ScanConfig()) == hash(im.ScanConfig())


class TestDeterminism:
    def test_reports_are_bit_identical_across_runs(self):
        first = im.check_meanness(im.general_base(A, A, H, 0.5), CFG)
        second = im.check_meanness(im.general_base(A, A, H, 0.5), CFG)
        assert first == second

    def test_seed_changes_the_random_supplement(self):
        base = im.check_meanness(im.general_base(A, A, H, 0.5), CFG)
        other = im.check_meanness(
            im.general_base(A, A, H, 0.5),
            im.ScanConfig(points_per_axis=16, seed=1),
        )
        # failure is robust to the seed even though samples differ
        assert not base.passed and not other.passed

    def test_invariance_report_identical_across_runs(self):
        pair = im.general_pair(A, A, H, 0.5)
        assert im.check_invariance(pair, CFG) == im.check_invariance(pair, CFG)


class TestWitnessSoundness:
    def test_meanness_witness_reproduces_the_violation(self):
        N = im.general_base(A, A, H, 0.5)
        report = im.check_meanness(N, CFG)
        assert not report.passed
        x, y, v = report.witness
        assert_allclose(N(x, y), v, rtol=1e-15)
        recomputed = max(min(x, y) - v, v - max(x, y)) / max(x, y)
        assert_allclose(recomputed, report.worst_violation, rtol=1e-12)

    def test_invariance_witness_reproduces_the_violation(self):
        # a deliberately mismatched pair drifts after one application
        pair = im.MeanPair(A, G, target=G)
        report = im.check_invariance(pair, CFG)
        assert not report.passed
        x, y, inner, outer = report.witness
        assert_allclose(G(A(x, y), G(x, y)), inner, rtol=1e-15)
        assert_allclose(G(x, y), outer, rtol=1e-15)
        assert_allclose(abs(inner - outer) / outer, report.worst_violation,
                        rtol=1e-12)

    def test_trace_witness_reproduces_the_violation(self):
        cheat = im.Mean(lambda x, y: x * x / y, "square-over",
                        homogeneous=True)
        report = im.check_trace_meanness(cheat, CFG)
        assert not report.passed
        x, m = report.witness
        assert_allclose(cheat(x, 1.0), m, rtol=1e-15)

    def test_monotone_witness_shows_a_decrease(self):
        pair = im.xy_pair(A, 0.5, im.builtin_cone("full"))
        report = im.check_monotone_trace(pair.L, CFG)
        assert not report.passed
        x0, x1, m0, m1 = report.witness
        assert x0 < x1
        assert m0 > m1


class TestTraceChecks:
    def test_catalog_agreement_between_trace_and_pair_scans(self):
        for name in im.CLASSICAL_NAMES:
            F = im.classical(name)
            by_pairs = im.check_meanness(F, CFG)
            by_trace = im.check_trace_meanness(F, CFG)
            assert by_pairs.passed and by_trace.passed, name

    def test_trace_check_catches_a_homogeneous_non_mean(self):
        cheat = im.Mean(lambda x, y: x * x / y, "square-over",
                        homogeneous=True)
        assert not im.check_trace_meanness(cheat, CFG).passed
        assert not im.check_meanness(cheat, CFG).passed

    def test_trace_checks_demand_the_homogeneous_flag(self):
        bare = im.Mean(lambda x, y: 0.5 * (x + y), "bare")
        with pytest.raises(im.DomainError, match="homogeneous"):
            im.check_trace_meanness(bare, CFG)
        with pytest.raises(im.DomainError, match="homogeneous"):
            im.check_monotone_trace(bare, CFG)

    def test_monotone_trace_passes_for_the_catalog(self):
        for name in im.CLASSICAL_NAMES:
            report = im.check_monotone_trace(im.classical(name), CFG)
            assert report.passed, name

    def test_monotone_trace_fails_with_explicit_decrease(self):
        pair = im.xy_pair(A, 0.5, im.builtin_cone("full"))
        trace = im.trace_of(pair.L)
        # closed form (x + 1)/(sqrt(x) + 1): high near 0, dips below 5/6
        assert_allclose(trace(1e-4), 0.9901980198019802, rtol=1e-12)
        assert_allclose(trace(0.25), 5.0 / 6.0, rtol=1e-12)
        assert not im.check_monotone_trace(pair.L, CFG).passed


class TestFlagScans:
    def test_catalog_flags_hold(self):
        for name in im.CLASSICAL_NAMES:
            report = im.check_flags(im.classical(name), CFG)
            assert report.passed, (name, report)

    def test_no_flags_pass_vacuously(self):
        bare = im.Mean(lambda x, y: 0.5 * (x + y), "bare")
        report = im.check_flags(bare, CFG)
        assert report.passed
        assert report.samples_checked == 0
        assert report.detail == "no flags declared"

    def test_false_strict_flag_is_caught(self):
        lying = dataclasses.replace(im.classical("min"), strict=True)
        report = im.check_flags(lying, CFG)
        assert not report.passed
        assert report.detail == "flag falsified: strict"

    def test_false_monotone_flag_is_caught(self):
        pair = im.xy_pair(A, 0.5, im.builtin_cone("full"))
        lying = dataclasses.replace(pair.L, monotone=True)
        report = im.check_flags(lying, CFG)
        assert not report.passed
        assert report.detail == "flag falsified: monotone"

    def test_first_falsified_flag_wins(self):
        # declaration order is symmetric, homogeneous, monotone, strict
        lying = dataclasses.replace(im.classical("proj1"), symmetric=True,
                                    strict=True)
        report = im.check_flags(lying, CFG)
        assert report.detail == "flag falsified: symmetric"

    def test_all_flags_evaluate_the_mean_four_times(self):
        # F(x, y) once, shared by the four scans, plus the swapped, scaled
        # and shifted evaluations
        calls = []

        def recording(x, y):
            calls.append((x, y))
            return A.fn(x, y)

        F = dataclasses.replace(A, fn=recording)
        assert F.symmetric and F.homogeneous and F.monotone and F.strict
        assert im.check_flags(F, CFG) == im.check_flags(A, CFG)
        assert len(calls) == 4
        x, y = _pair_samples(CFG)
        assert calls[0][0] is x and calls[0][1] is y
        assert calls[1][0] is y and calls[1][1] is x

    def test_strict_scan_reuses_the_full_evaluation(self):
        calls = []

        def recording(x, y):
            calls.append(np.size(x))
            return A.fn(x, y)

        F = im.Mean(recording, "strict-only", strict=True)
        report = im.check_flags(F, CFG)
        x, y = _pair_samples(CFG)
        kept = np.count_nonzero(np.abs(np.log(x / y)) >= 0.1)
        assert report.passed
        assert calls == [x.size]
        assert report.samples_checked == kept


class TestFailureReporting:
    def test_raising_evaluator_becomes_a_failed_report(self):
        def explode(x, y):
            raise ValueError("refuses arrays")

        broken = im.Mean(explode, "broken")
        report = im.check_meanness(broken, CFG)
        assert not report.passed
        assert report.worst_violation == math.inf
        assert report.detail.startswith("evaluation failed")
        assert report.samples_checked > 0

    def test_meanness_calls_the_mean_once_with_every_lane(self):
        calls = []

        def recording(x, y):
            calls.append((x, y))
            return A.fn(x, y)

        report = im.check_meanness(im.Mean(recording, "recording"), CFG)
        x, y = _pair_samples(CFG)
        assert len(calls) == 1
        assert calls[0][0] is x and calls[0][1] is y
        assert report.samples_checked == x.size

    @pytest.mark.parametrize("check", [im.check_trace_meanness,
                                       im.check_monotone_trace, im.check_flags])
    def test_raising_evaluator_fails_every_mean_check(self, check):
        broken = im.Mean(_explode, "broken", symmetric=True, homogeneous=True)
        report = check(broken, CFG)
        assert not report.passed
        assert report.worst_violation == math.inf
        assert report.detail == "evaluation failed: refuses arrays"
        assert report.samples_checked > 0
        assert len(report.witness) == 2

    def test_raising_component_fails_the_invariance_check(self):
        pair = im.MeanPair(A, im.Mean(_explode, "broken"), target=G)
        report = im.check_invariance(pair, CFG)
        assert not report.passed
        assert report.worst_violation == math.inf
        assert report.detail == "evaluation failed: refuses arrays"
        assert report.samples_checked == _pair_samples(CFG)[0].size
        assert len(report.witness) == 2

    def test_flags_report_a_raise_on_the_swapped_call(self):
        x, _ = _pair_samples(CFG)

        def refuse_swapped(a, b):
            if b is x:
                raise ValueError("swapped arguments")
            return A.fn(a, b)

        F = dataclasses.replace(A, fn=refuse_swapped)
        report = im.check_flags(F, CFG)
        assert not report.passed
        assert report.worst_violation == math.inf
        assert report.detail == "evaluation failed: swapped arguments"
        assert report.samples_checked == x.size

    def test_nan_output_is_a_failure_with_detail(self):
        def patchy(x, y):
            return np.where(x > 1e3, np.nan, 0.5 * (x + y))

        report = im.check_meanness(im.Mean(patchy, "patchy"), CFG)
        assert not report.passed
        assert report.worst_violation == math.inf
        assert report.detail == "non-finite evaluation at witness"
        assert report.witness[0] > 1e3

    def test_report_serialization(self):
        report = im.check_meanness(A, CFG)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert set(payload) == {"passed", "worst_violation", "witness",
                                "samples"}
        assert isinstance(payload["witness"], list)

    def test_detail_included_when_present(self):
        bare = im.Mean(lambda x, y: 0.5 * (x + y), "bare")
        payload = im.check_flags(bare, CFG).to_dict()
        assert payload["detail"] == "no flags declared"
