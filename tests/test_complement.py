"""Complementary-pair constructions and their invariance identities."""

import dataclasses

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im
from invmeans.means import _pow


def random_pairs(n=10000, lo=1e-3, hi=1e3, seed=42):
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    y = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return x, y


A = im.classical("arithmetic")
G = im.classical("geometric")
H = im.classical("harmonic")
L = im.classical("logarithmic")


class TestSelfComplementBase:
    def test_t_zero_returns_the_mean_itself(self):
        x, y = random_pairs(500)
        M0 = im.self_complement_base(A, 0.0)
        assert_allclose(M0.fn(x, y), A.fn(x, y), rtol=1e-14)

    @pytest.mark.parametrize("t", [-0.75, -0.5, 0.25, 0.5, 0.75])
    def test_geometric_reproduces_itself(self, t):
        x, y = random_pairs(500)
        Gt = im.self_complement_base(G, t)
        assert_allclose(Gt.fn(x, y), G.fn(x, y), rtol=1e-13)

    def test_power_two_worked_value(self):
        # ((1+16)/2) / ((1+4)/2) squared is exactly 17/5
        Mt = im.self_complement_base(im.power_mean(2), 0.5)
        assert_allclose(Mt(1, 4), 17.0 / 5.0, rtol=1e-14)

    def test_arithmetic_worked_value(self):
        Mt = im.self_complement_base(A, 0.5)
        assert_allclose(Mt(1, 4), 25.0 / 9.0, rtol=1e-14)

    @pytest.mark.parametrize("t", [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
    def test_logarithmic_base_is_a_difference_mean(self, t):
        # the kernel over L coincides with stolarsky(1, t)
        Mt = im.self_complement_base(L, t)
        S = im.stolarsky(1, t)
        x, y = random_pairs(10000, lo=1e-6, hi=1e6)
        rel = np.abs(Mt.fn(x, y) - S.fn(x, y)) / S.fn(x, y)
        assert float(rel.max()) <= 1e-10

    @pytest.mark.parametrize("mean", [A, G, L, im.power_mean(2)])
    @pytest.mark.parametrize("t", [-0.5, 0.25, 0.75])
    def test_matches_the_explicit_formula_bit_for_bit(self, mean, t):
        # the kernel over the coordinates is exactly this expression
        x, y = random_pairs(4000, lo=1e-6, hi=1e6)
        explicit = _pow(mean.fn(x, y) / mean.fn(_pow(x, t), _pow(y, t)),
                        1.0 / (1.0 - t))
        assert np.array_equal(im.self_complement_base(mean, t).fn(x, y), explicit)

    def test_spec_strings(self):
        assert im.self_complement_base(L, 0.5).spec == "mt:logarithmic:0.5"
        nested = im.self_complement_base(im.power_mean(2), 0.5)
        assert nested.spec == "mt:(power:2.0):0.5"

    def test_flags_required(self):
        with pytest.raises(im.DomainError, match="symmetric and homogeneous"):
            im.self_complement_base(im.classical("proj1"), 0.5)

    @pytest.mark.parametrize("t", [-1.0, 1.0, 2.0])
    def test_t_range(self, t):
        with pytest.raises(im.ParameterError, match="-1 < t < 1"):
            im.self_complement_base(A, t)

    @pytest.mark.parametrize("mean", [A, G, L, H])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_quotient_sandwich(self, mean, t):
        # for x <= y the kernel quotient M/M(x^t, y^t) lies in
        # [x^(1-t), y^(1-t)], which is where mean-ness of the base comes from
        x, y = random_pairs(4000)
        x, y = np.minimum(x, y), np.maximum(x, y)
        q = mean.fn(x, y) / mean.fn(x ** t, y ** t)
        assert np.all(q >= x ** (1.0 - t) * (1.0 - 1e-12))
        assert np.all(q <= y ** (1.0 - t) * (1.0 + 1e-12))

    @pytest.mark.parametrize("mean", [A, L])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_sign_reflection_identity(self, mean, t):
        # x^t * M_t^(1-t) equals y^(-t) * M_{-t}^(1+t) pointwise
        pos = im.self_complement_base(mean, t)
        neg = im.self_complement_base(mean, -t)
        x, y = random_pairs(10000)
        lhs = x ** t * pos.fn(x, y) ** (1.0 - t)
        rhs = y ** (-t) * neg.fn(x, y) ** (1.0 + t)
        assert_allclose(lhs, rhs, rtol=1e-10)


class TestXYPair:
    def test_worked_example(self):
        pair = im.xy_pair(A, 0.5, im.builtin_cone("full"))
        assert_allclose(pair.K(1, 4), 5.0 / 3.0, rtol=1e-14)
        assert_allclose(pair.L(1, 4), 10.0 / 3.0, rtol=1e-14)
        assert_allclose(A(pair.K(1, 4), pair.L(1, 4)), 2.5, rtol=1e-14)

    def test_geometric_closed_form(self):
        # with M = G the components collapse to x^t * (xy)^((1-t)/2)
        pair = im.xy_pair(G, 0.5, im.builtin_cone("full"))
        x, y = random_pairs(2000)
        assert_allclose(pair.K.fn(x, y), np.sqrt(x) * (x * y) ** 0.25,
                        rtol=1e-13)
        assert_allclose(pair.L.fn(x, y), np.sqrt(y) * (x * y) ** 0.25,
                        rtol=1e-13)

    def test_t_zero_collapses_to_the_target(self):
        pair = im.xy_pair(A, 0.0, im.builtin_cone("lower"))
        x, y = random_pairs(500)
        assert_allclose(pair.K.fn(x, y), A.fn(x, y), rtol=1e-14)
        assert_allclose(pair.L.fn(x, y), A.fn(x, y), rtol=1e-14)
        assert pair.K.symmetric

    @pytest.mark.parametrize("cone", ["full", "lower", "mixed"])
    @pytest.mark.parametrize("t", [-0.6, 0.3, 0.5, 0.9])
    def test_invariance_scan(self, cone, t):
        pair = im.xy_pair(A, t, im.builtin_cone(cone))
        report = im.check_invariance(pair, im.ScanConfig(points_per_axis=16))
        assert report.passed, (cone, t, report)

    def test_flags_follow_the_selection_set(self):
        lower = im.xy_pair(A, 0.5, im.builtin_cone("lower"))
        assert lower.K.symmetric and lower.K.homogeneous
        full = im.xy_pair(A, 0.5, im.builtin_cone("full"))
        assert not full.K.symmetric
        mixed = im.xy_pair(A, 0.5, im.builtin_cone("mixed"))
        assert mixed.K.symmetric and not mixed.K.homogeneous

    def test_spec_string(self):
        pair = im.xy_pair(A, 0.5, im.builtin_cone("lower"))
        assert pair.spec == "pair:arithmetic:(proj:lower):(proj:upper):0.5"
        assert im.xy_pair(A, -0.5, im.builtin_cone("lower")).spec is None
        assert im.xy_pair(A, 0.5, im.builtin_cone("mixed")).spec is None

    @pytest.mark.parametrize("cone", im.BUILTIN_CONE_NAMES)
    def test_matches_general_pair_bit_for_bit(self, cone):
        # same target, components spelled as selection means: identical
        # floating-point path, so the values agree exactly
        cset = im.builtin_cone(cone)
        P = im.projective_mean(cset)
        Q = im.projective_mean(im.complement_cone(cset))
        x, y = random_pairs(4000, lo=1e-6, hi=1e6)
        for t in (0.1, 0.25, 0.5, 0.9):
            via_xy = im.xy_pair(A, t, cset)
            via_general = im.general_pair(A, P, Q, t)
            assert np.array_equal(via_xy.K.fn(x, y), via_general.K.fn(x, y)), t
            assert np.array_equal(via_xy.L.fn(x, y), via_general.L.fn(x, y)), t

    def test_requires_monotone_target(self):
        shifty = dataclasses.replace(A, monotone=False)
        with pytest.raises(im.DomainError, match="monotone"):
            im.xy_pair(shifty, 0.5)

    def test_t_range(self):
        with pytest.raises(im.ParameterError, match="-1 < t < 1"):
            im.xy_pair(A, 1.0)


class TestLogPair:
    def test_worked_example(self):
        pair = im.log_pair(0.5)
        assert_allclose(pair.K(4, 1), 3.0, rtol=1e-14)
        assert_allclose(pair.L(4, 1), 1.5, rtol=1e-14)
        assert pair.target.label == "logarithmic"
        # the invariant value is the logarithmic mean of the inputs
        assert_allclose(pair.target(pair.K(4, 1), pair.L(4, 1)),
                        3.0 / np.log(4.0), rtol=1e-14)

    def test_t_one_degenerates_to_selections(self):
        pair = im.log_pair(1.0, im.builtin_cone("lower"))
        x, y = random_pairs(500)
        assert_allclose(pair.K.fn(x, y), np.minimum(x, y), rtol=1e-14)
        assert_allclose(pair.L.fn(x, y), np.maximum(x, y), rtol=1e-14)

    def test_t_minus_one_swaps_selections(self):
        # the quotient becomes xy/P, which is the complementary selection
        pair = im.log_pair(-1.0, im.builtin_cone("lower"))
        x, y = random_pairs(500)
        assert_allclose(pair.K.fn(x, y), np.maximum(x, y), rtol=1e-13)
        assert_allclose(pair.L.fn(x, y), np.minimum(x, y), rtol=1e-13)

    def test_negating_t_swaps_the_pair(self):
        plus = im.log_pair(0.4, im.builtin_cone("lower"))
        minus = im.log_pair(-0.4, im.builtin_cone("lower"))
        x, y = random_pairs(1000)
        assert_allclose(minus.K.fn(x, y), plus.L.fn(x, y), rtol=1e-13)
        assert_allclose(minus.L.fn(x, y), plus.K.fn(x, y), rtol=1e-13)

    @pytest.mark.parametrize("cone", ["full", "lower"])
    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0])
    def test_matches_a_60_digit_oracle(self, cone, t):
        # K = P^t * t*(x-y)/(x^t-y^t), one pair in four near the diagonal
        x, y = random_pairs(300, lo=1e-6, hi=1e6, seed=7)
        gap = np.geomspace(1e-12, 1e-6, 100)
        x = np.concatenate([x, x[:100]])
        y = np.concatenate([y, x[:100] * (1.0 + gap)])
        K = im.log_pair(t, im.builtin_cone(cone)).K.fn(x, y)
        first = im.builtin_cone(cone).membership(x, y)
        worst = 0.0
        with mpmath.workdps(60):
            tt = mpmath.mpf(t)
            for xi, yi, ki, fi in zip(x, y, K, first):
                a, b = mpmath.mpf(xi), mpmath.mpf(yi)
                ref = (a if fi else b) ** tt * tt * (a - b) / (a ** tt - b ** tt)
                worst = max(worst, float(abs(mpmath.mpf(ki) - ref) / ref))
        assert worst <= 4e-15, worst

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
    def test_agrees_with_xy_pair_over_logarithmic(self, t):
        direct = im.log_pair(t, im.builtin_cone("lower"))
        via_xy = im.xy_pair(L, t, im.builtin_cone("lower"))
        x, y = random_pairs(4000, lo=1e-6, hi=1e6)
        assert_allclose(direct.K.fn(x, y), via_xy.K.fn(x, y), rtol=1e-12)
        assert_allclose(direct.L.fn(x, y), via_xy.L.fn(x, y), rtol=1e-12)

    @pytest.mark.parametrize("cone", ["full", "lower", "mixed"])
    def test_invariance_scan(self, cone):
        pair = im.log_pair(0.5, im.builtin_cone(cone))
        report = im.check_invariance(pair, im.ScanConfig(points_per_axis=16))
        assert report.passed, (cone, report)

    def test_spec_only_for_named_complements_inside_unit_range(self):
        assert (im.log_pair(0.5).spec
                == "pair:logarithmic:(proj:full):(proj:empty):0.5")
        assert im.log_pair(-0.5).spec is None
        assert im.log_pair(0.5, im.builtin_cone("mixed")).spec is None

    @pytest.mark.parametrize("t", [0.0, 1.5, -2.0])
    def test_t_range(self, t):
        with pytest.raises(im.ParameterError, match="t != 0|\\[-1, 1\\]"):
            im.log_pair(t)


class TestGeneralBase:
    def test_arithmetic_family_is_not_a_mean(self):
        N = im.general_base(A, A, H, 0.5)
        report = im.check_meanness(N, im.ScanConfig(points_per_axis=16))
        assert not report.passed
        x, y = report.witness[0], report.witness[1]
        assert max(x, y) / min(x, y) >= 1e4

    def test_arithmetic_family_trace_ratio(self):
        # the overshoot factor at large arguments approaches 2
        N = im.general_base(A, A, H, 0.5)
        assert_allclose(N(1e6, 1.0) / 1e6, 1.9920259361357437, rtol=1e-12)

    def test_logarithmic_over_arithmetic_harmonic_is_a_mean(self):
        N = im.general_base(L, A, H, 0.5)
        report = im.check_meanness(N, im.ScanConfig(points_per_axis=16))
        assert report.passed, report

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_geometric_over_arithmetic_harmonic_collapses(self, t):
        # A*H = G^2 makes the kernel cancel back to G at every t
        N = im.general_base(G, A, H, t)
        x, y = random_pairs(2000)
        assert_allclose(N.fn(x, y), G.fn(x, y), rtol=1e-13)

    def test_geometric_threshold_at_one_half(self):
        # with C = D = min the kernel is x^(1/(2(1-t))) * y^((1-2t)/(2(1-t)))
        # for x >= y: a mean exactly up to t = 1/2, escaping beyond
        mn = im.classical("min")
        cfg = im.ScanConfig(points_per_axis=16)
        assert im.check_meanness(im.general_base(G, mn, mn, 0.5), cfg).passed
        report = im.check_meanness(im.general_base(G, mn, mn, 0.6), cfg)
        assert not report.passed

    def test_flags_come_from_the_components(self):
        N = im.general_base(A, im.classical("proj1"), A, 0.5)
        assert not N.symmetric
        assert N.homogeneous
        assert not N.monotone

    def test_spec_string(self):
        N = im.general_base(A, A, H, 0.5)
        assert N.spec == "nt:arithmetic:arithmetic:harmonic:0.5"

    def test_parameter_range(self):
        with pytest.raises(im.ParameterError, match="0 < t < 1"):
            im.general_base(A, A, H, 0.0)

    def test_target_flags_required(self):
        with pytest.raises(im.DomainError, match="symmetric"):
            im.general_base(im.classical("proj1"), A, H, 0.5)


class TestGeneralPair:
    def test_worked_example(self):
        pair = im.general_pair(A, A, H, 0.5)
        assert_allclose(pair.K(1, 4), 25.0 / 9.0, rtol=1e-14)
        assert_allclose(pair.L(1, 4), 20.0 / 9.0, rtol=1e-14)
        assert_allclose(A(pair.K(1, 4), pair.L(1, 4)), 2.5, rtol=1e-12)

    def test_equal_components_collapse_to_the_target(self):
        pair = im.general_pair(A, G, G, 0.3)
        x, y = random_pairs(1000)
        assert_allclose(pair.K.fn(x, y), A.fn(x, y), rtol=1e-13)
        assert_allclose(pair.L.fn(x, y), A.fn(x, y), rtol=1e-13)

    def test_invariance_on_a_dense_grid(self):
        # the defining equation M(K, L) = M holds everywhere, including
        # for a base kernel that is not a mean
        pair = im.general_pair(A, A, H, 0.5)
        axis = np.geomspace(1e-3, 1e3, 40)
        gx, gy = np.meshgrid(axis, axis)
        x, y = gx.ravel(), gy.ravel()
        inner = A.fn(pair.K.fn(x, y), pair.L.fn(x, y))
        outer = A.fn(x, y)
        assert float(np.max(np.abs(inner - outer) / outer)) <= 1e-11

    @pytest.mark.parametrize("c,d", [("min", "max"), ("proj1", "proj2"),
                                     ("geometric", "logarithmic")])
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_components_are_means_and_pair_is_invariant(self, c, d, t):
        pair = im.general_pair(A, im.classical(c), im.classical(d), t)
        cfg = im.ScanConfig(points_per_axis=16)
        assert im.check_meanness(pair.K, cfg).passed
        assert im.check_meanness(pair.L, cfg).passed
        assert im.check_invariance(pair, cfg).passed

    def test_spec_string_and_its_absence(self):
        pair = im.general_pair(A, A, H, 0.5)
        assert pair.spec == "pair:arithmetic:arithmetic:harmonic:0.5"
        unnamed = dataclasses.replace(A, spec=None)
        assert im.general_pair(A, unnamed, H, 0.5).spec is None

    def test_flags_come_from_the_components(self):
        pair = im.general_pair(A, im.classical("proj1"), im.classical("proj2"),
                               0.5)
        assert not pair.K.symmetric
        assert pair.K.homogeneous

    def test_parameter_range(self):
        with pytest.raises(im.ParameterError, match="0 < t < 1"):
            im.general_pair(A, A, H, 1.0)


class TestTranslativeConjugate:
    def test_conjugate_of_arithmetic_value(self):
        N = im.translative_conjugate(A)
        assert_allclose(N(0.0, np.log(3.0)), np.log(2.0), rtol=1e-14)

    def test_conjugate_of_geometric_is_the_midpoint(self):
        N = im.translative_conjugate(G)
        assert_allclose(N(3, 5), 4.0, atol=1e-13)
        rng = np.random.default_rng(42)
        x = rng.uniform(-700, 700, 10000)
        y = rng.uniform(-700, 700, 10000)
        assert_allclose(N.fn(x, y), 0.5 * (x + y), atol=2.5e-13)

    def test_diagonal(self):
        for name in ("arithmetic", "geometric", "harmonic", "logarithmic"):
            N = im.translative_conjugate(im.classical(name))
            x = np.linspace(-600, 600, 101)
            assert_allclose(N.fn(x, x), x, atol=2e-13, err_msg=name)

    @pytest.mark.parametrize("name", ["arithmetic", "geometric", "logarithmic"])
    def test_translative_property(self, name):
        N = im.translative_conjugate(im.classical(name))
        rng = np.random.default_rng(42)
        x = rng.uniform(-500, 500, 2000)
        y = rng.uniform(-500, 500, 2000)
        c = rng.uniform(-100, 100, 2000)
        assert_allclose(N.fn(x + c, y + c), N.fn(x, y) + c, atol=5e-13)

    def test_argument_limit(self):
        N = im.translative_conjugate(A)
        with pytest.raises(OverflowError, match="700"):
            N(700.5, 0.0)
        assert np.isfinite(N(700.0, -700.0))

    def test_an_argument_past_the_limit_is_also_a_means_error(self):
        N = im.translative_conjugate(A)
        with pytest.raises(im.MeansError, match="700") as info:
            N(0.0, -700.5)
        assert isinstance(info.value, im.DomainError)
        assert isinstance(info.value, OverflowError)

    def test_flag_transport(self):
        N = im.translative_conjugate(im.classical("proj1"))
        assert N.translative and N.monotone and not N.symmetric
        assert repr(N) == "RealMean(conj(proj1))"

    def test_arithmetic_on_reals_handles_negatives(self):
        assert im.ARITHMETIC_ON_REALS(-3, -5) == -4.0

    @pytest.mark.parametrize("x, y", [(np.inf, -np.inf), (np.nan, 0.0), (0.0, np.inf),
                                      ([1.0, np.nan], 2.0), (1.0, [-np.inf, 0.0])])
    def test_calls_reject_non_finite_arguments(self, x, y):
        for N in (im.ARITHMETIC_ON_REALS, im.translative_conjugate(G)):
            with pytest.raises(im.DomainError, match="finite"):
                N(x, y)

    def test_the_raw_evaluator_does_not_check(self):
        with np.errstate(invalid="ignore"):
            assert np.isnan(im.ARITHMETIC_ON_REALS.fn(np.inf, -np.inf))


class TestTranslativePair:
    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.5])
    def test_weighted_coefficients_exact(self, t):
        pair = im.translative_pair(im.ARITHMETIC_ON_REALS, t)
        assert pair.K(1.0, 0.0) == (1.0 + t) / 2.0
        assert pair.K(0.0, 1.0) == (1.0 - t) / 2.0
        assert pair.L(1.0, 0.0) == (1.0 - t) / 2.0
        assert pair.L(0.0, 1.0) == (1.0 + t) / 2.0

    def test_worked_example(self):
        pair = im.translative_pair(im.ARITHMETIC_ON_REALS, 0.5)
        assert pair.K(0.0, 4.0) == 1.0
        assert pair.L(0.0, 4.0) == 3.0
        assert im.ARITHMETIC_ON_REALS(1.0, 3.0) == im.ARITHMETIC_ON_REALS(0.0, 4.0)

    @pytest.mark.parametrize("t", [-0.5, 0.25, 0.5])
    def test_invariance_up_to_rounding(self, t):
        pair = im.translative_pair(im.ARITHMETIC_ON_REALS, t)
        rng = np.random.default_rng(42)
        x = rng.uniform(-1e3, 1e3, 10000)
        y = rng.uniform(-1e3, 1e3, 10000)
        inner = 0.5 * (pair.K.fn(x, y) + pair.L.fn(x, y))
        assert_allclose(inner, 0.5 * (x + y), atol=2.5e-13)

    def test_conjugate_target_invariance(self):
        N = im.translative_conjugate(G)
        pair = im.translative_pair(N, 0.5)
        rng = np.random.default_rng(42)
        x = rng.uniform(-600, 600, 2000)
        y = rng.uniform(-600, 600, 2000)
        inner = N.fn(pair.K.fn(x, y), pair.L.fn(x, y))
        assert_allclose(inner, N.fn(x, y), atol=1e-12)

    def test_t_zero_collapses_to_the_target(self):
        pair = im.translative_pair(im.ARITHMETIC_ON_REALS, 0.0)
        rng = np.random.default_rng(42)
        x = rng.uniform(-1e3, 1e3, 500)
        y = rng.uniform(-1e3, 1e3, 500)
        assert_allclose(pair.K.fn(x, y), 0.5 * (x + y), rtol=0, atol=0)
        assert pair.K.symmetric

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.5])
    def test_the_invariance_scan_passes(self, t):
        pair = im.translative_pair(im.ARITHMETIC_ON_REALS, t)
        assert isinstance(pair, im.MeanPair)
        report = im.check_invariance(pair)
        assert report.passed, report
        assert report.worst_violation <= 4e-16

    def test_requires_translative_flags(self):
        N = im.translative_conjugate(im.classical("proj1"))
        with pytest.raises(im.DomainError, match="symmetric"):
            im.translative_pair(N, 0.5)

    def test_t_range(self):
        with pytest.raises(im.ParameterError, match="-1 < t < 1"):
            im.translative_pair(im.ARITHMETIC_ON_REALS, 1.0)
