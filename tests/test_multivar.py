"""n-ary constructions: invariance survives, mean-ness escapes for n >= 3."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im

A = im.classical("arithmetic")
H = im.classical("harmonic")


def closed_form_ratio(n, t, x):
    """Escape ratio on the ray (1, x, ..., x), written out directly.

    With M and the first component both the n-ary arithmetic mean and the
    rest geometric, the first tuple entry at (1, x, ..., x) divided by x is
    n*a^(1+t) / (x*(a^t + (n-1)*g^t)) with a = (1+(n-1)x)/n, g = x^((n-1)/n).
    """
    a = (1.0 + (n - 1) * x) / n
    g = x ** ((n - 1) / n)
    return n * a ** (1.0 + t) / (x * (a ** t + (n - 1) * g ** t))


def random_vectors(n, m, lo=1e-3, hi=1e3, seed=42):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), (n, m)))


class TestNaryAtoms:
    def test_arithmetic(self):
        F = im.nary_arithmetic(3)
        assert F(np.array([1.0, 2.0, 6.0])) == 3.0
        assert F.n == 3

    def test_geometric(self):
        F = im.nary_geometric(3)
        assert_allclose(F(np.array([1.0, 8.0, 27.0])), 6.0, rtol=1e-14)

    def test_batch_axis(self):
        F = im.nary_arithmetic(2)
        xs = np.array([[1.0, 2.0], [3.0, 6.0]])
        assert_allclose(F(xs), [2.0, 4.0], rtol=1e-15)

    def test_geometric_survives_large_products(self):
        F = im.nary_geometric(4)
        xs = np.full(4, 1e200)
        assert_allclose(F(xs), 1e200, rtol=1e-12)

    def test_arity_validation(self):
        with pytest.raises(im.ParameterError, match="at least 2"):
            im.nary_arithmetic(1)
        F = im.nary_arithmetic(3)
        with pytest.raises(im.DomainError, match="expected 3"):
            F(np.ones(4))

    def test_positivity_validation(self):
        F = im.nary_arithmetic(2)
        with pytest.raises(im.DomainError, match="positive"):
            F(np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_finite_arguments_required(self, bad):
        F = im.nary_arithmetic(3)
        with pytest.raises(im.DomainError, match="positive reals"):
            F([1.0, bad, 1.0])
        with pytest.raises(im.DomainError, match="positive reals"):
            F(np.array([[1.0, 2.0], [3.0, bad], [5.0, 6.0]]))


class TestNaryBase:
    def test_two_variable_case_matches_the_bivariate_kernel(self):
        # both run complement._kernel: the same bits, not just close values
        A2 = im.nary_arithmetic(2)
        H2 = im.NaryMean(lambda xs: H.fn(xs[0], xs[1]), 2, "harmonic[2]")
        xs = random_vectors(2, 3000)
        for t in (0.1, 0.5, 0.9):
            nary = im.nary_general_base(A2, [A2, H2], t)
            bivariate = im.general_base(A, A, H, t)
            assert np.array_equal(nary.fn(xs), bivariate.fn(xs[0], xs[1])), t

    def test_two_variable_tuple_matches_the_bivariate_pair(self):
        A2 = im.nary_arithmetic(2)
        H2 = im.NaryMean(lambda xs: H.fn(xs[0], xs[1]), 2, "harmonic[2]")
        xs = random_vectors(2, 3000)
        for t in (0.1, 0.5, 0.9):
            K1, K2 = im.nary_invariant_tuple(A2, [A2, H2], t)
            pair = im.general_pair(A, A, H, t)
            assert np.array_equal(K1.fn(xs), pair.K.fn(xs[0], xs[1])), t
            assert np.array_equal(K2.fn(xs), pair.L.fn(xs[0], xs[1])), t

    def test_identical_components_collapse_to_the_target(self):
        A3 = im.nary_arithmetic(3)
        N = im.nary_general_base(A3, [A3, A3, A3], 0.4)
        xs = random_vectors(3, 1000)
        assert_allclose(N.fn(xs), A3.fn(xs), rtol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_mean_ness_fails_for_the_escaping_family(self, n, t):
        An = im.nary_arithmetic(n)
        Gn = im.nary_geometric(n)
        N = im.nary_general_base(An, (An,) + (Gn,) * (n - 1), t)
        report = im.check_nary_meanness(N, im.ScanConfig(points_per_axis=16))
        assert not report.passed, (n, t)
        args = report.witness[:-1]
        assert max(args) / min(args) >= 1e3

    def test_arity_mismatch(self):
        A3 = im.nary_arithmetic(3)
        A2 = im.nary_arithmetic(2)
        with pytest.raises(im.DomainError, match="arity"):
            im.nary_general_base(A3, [A3, A3, A2], 0.5)
        with pytest.raises(im.DomainError, match="component means"):
            im.nary_general_base(A3, [A3, A3], 0.5)

    def test_t_range(self):
        A3 = im.nary_arithmetic(3)
        with pytest.raises(im.ParameterError, match="0 < t < 1"):
            im.nary_general_base(A3, [A3, A3, A3], 1.0)


class TestInvariantTuple:
    @pytest.mark.parametrize("n", [3, 5])
    def test_invariance_survives_in_n_variables(self, n):
        An = im.nary_arithmetic(n)
        Gn = im.nary_geometric(n)
        tuple_means = im.nary_invariant_tuple(An, (An,) + (Gn,) * (n - 1), 0.5)
        xs = random_vectors(n, 1000)
        images = np.stack([K.fn(xs) for K in tuple_means])
        rel = np.abs(An.fn(images) - An.fn(xs)) / An.fn(xs)
        assert float(rel.max()) <= 1e-11

    def test_mixed_components_stay_invariant(self):
        A4 = im.nary_arithmetic(4)
        G4 = im.nary_geometric(4)
        tuple_means = im.nary_invariant_tuple(G4, (A4, G4, A4, G4), 0.3)
        xs = random_vectors(4, 1000, seed=7)
        images = np.stack([K.fn(xs) for K in tuple_means])
        rel = np.abs(G4.fn(images) - G4.fn(xs)) / G4.fn(xs)
        assert float(rel.max()) <= 1e-11

    def test_tuple_arity(self):
        A3 = im.nary_arithmetic(3)
        out = im.nary_invariant_tuple(A3, [A3, A3, A3], 0.5)
        assert len(out) == 3
        assert all(K.n == 3 for K in out)


def _counting(M, calls):
    """``M`` under another label, counting the calls of its evaluator."""
    def fn(xs):
        calls[label] += 1
        return M.fn(xs)

    label = f"counting.{M.label}"
    calls[label] = 0
    return im.NaryMean(fn, M.n, label)


class TestRepeatedComponents:
    # a component named by several rows is evaluated once per kernel call

    def test_each_distinct_component_runs_once(self):
        calls = {}
        A5, G5 = im.nary_arithmetic(5), im.nary_geometric(5)
        CA, CG = _counting(A5, calls), _counting(G5, calls)
        components = (CG, CA, CG, CG, CA)
        xs = random_vectors(5, 100, seed=3)
        base = im.nary_general_base(A5, components, 0.5)
        tuple_means = im.nary_invariant_tuple(A5, components, 0.5)
        base.fn(xs)
        assert calls == {CA.label: 1, CG.label: 1}
        tuple_means[2].fn(xs)
        assert calls == {CA.label: 2, CG.label: 2}

    def test_rows_keep_their_positions(self):
        # one counting copy of G4 stands in the two G4 rows, so every K_i
        # sees its own component in its own row
        A4, G4 = im.nary_arithmetic(4), im.nary_geometric(4)
        CG = _counting(G4, {})
        xs = random_vectors(4, 500, seed=11)
        plain = im.nary_invariant_tuple(G4, (A4, G4, G4, A4), 0.3)
        counted = im.nary_invariant_tuple(G4, (A4, CG, CG, A4), 0.3)
        for K, Kc in zip(plain, counted):
            assert np.array_equal(K.fn(xs), Kc.fn(xs))


class TestEscapeRatio:
    def test_matches_the_closed_form(self):
        for n, t, x in [(3, 0.5, 1e8), (5, 0.5, 1e10), (3, 0.25, 1e6),
                        (4, 0.75, 1e12), (3, 0.5, 7.3)]:
            assert_allclose(im.counterexample_ratio(n, t, x),
                            closed_form_ratio(n, t, x), rtol=1e-12)

    def test_frozen_reference_values(self):
        assert_allclose(im.counterexample_ratio(3, 0.5, 1e8),
                        1.7958234303252134, rtol=1e-13)
        assert_allclose(im.counterexample_ratio(5, 0.5, 1e10),
                        2.763932022579983, rtol=1e-13)
        assert_allclose(im.counterexample_ratio(3, 0.5, 1e13),
                        1.967171489373292, rtol=1e-13)
        assert_allclose(im.counterexample_ratio(5, 0.5, 1e20),
                        3.8287721060120408, rtol=1e-13)

    def test_equal_arguments_give_exactly_one(self):
        assert im.counterexample_ratio(3, 0.5, 1.0) == 1.0

    def test_ratio_exceeds_one_for_large_x(self):
        # escaping the envelope is what breaks mean-ness for n >= 3
        for n in (3, 4, 5):
            assert im.counterexample_ratio(n, 0.5, 1e8) > 1.0

    def test_limit_is_n_minus_one(self):
        assert abs(im.counterexample_ratio(3, 0.5, 1e30) - 2.0) < 1e-3
        assert abs(im.counterexample_ratio(5, 0.5, 1e40) - 4.0) < 2e-2

    def test_parameter_validation(self):
        with pytest.raises(im.ParameterError, match="n >= 3"):
            im.counterexample_ratio(2, 0.5, 10.0)
        with pytest.raises(im.ParameterError, match="0 < t < 1"):
            im.counterexample_ratio(3, 1.0, 10.0)
        with pytest.raises(im.ParameterError, match="x > 0"):
            im.counterexample_ratio(3, 0.5, 0.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(im.ParameterError, match="x > 0"):
                im.counterexample_ratio(3, 0.5, bad)

    @pytest.mark.parametrize("n", [3, 10, 1000])
    def test_the_ratio_evaluates_the_first_tuple_component(self, n):
        # the ratio builds K_1 alone; the tuple's K_1 gives the same bits
        An, Gn = im.nary_arithmetic(n), im.nary_geometric(n)
        for t in (0.25, 0.5, 0.75):
            first = im.nary_invariant_tuple(An, (An,) + (Gn,) * (n - 1), t)[0]
            for x in (0.5, 1.0, 7.3, 1e8):
                xs = np.full(n, x)
                xs[0] = 1.0
                assert im.counterexample_ratio(n, t, x) == first(xs) / max(1.0, x)
            # past DBL_MAX / n the ratio is K_1(1/x, 1, ..., 1)
            xs = np.ones(n)
            xs[0] = 1.0 / 1e308
            assert im.counterexample_ratio(n, t, 1e308) == first(xs)

    def test_n_is_bounded(self):
        # the cost grows like n; the bound itself is accepted
        assert im.counterexample_ratio(100_000, 0.5, 1.0) == 1.0
        for n in (100_001, 10**23):
            with pytest.raises(im.ParameterError, match=r"n <= 100000$"):
                im.counterexample_ratio(n, 0.5, 2.0)


class TestOverflow:
    # tier-1 turns RuntimeWarning into an error, so these also show that
    # no overflow warning escapes

    def test_arithmetic_at_the_top_of_the_float_range(self):
        F = im.nary_arithmetic(3)
        assert F([1e308] * 3) == 1e308
        top = sys.float_info.max
        assert F([top] * 3) == top
        assert F([top, 1.0, top]) == pytest.approx(top / 3.0 * 2.0, rel=1e-15)

    def test_arithmetic_redoes_only_the_overflowing_lanes(self):
        xs = random_vectors(3, 200)
        xs[:, 17] = 1e308
        xs[:, 101] = (1e308, 1.0, 1.7e308)
        out = im.nary_arithmetic(3)(xs)
        finite = np.ones(200, dtype=bool)
        finite[[17, 101]] = False
        assert np.array_equal(out[finite], np.mean(xs[:, finite], axis=0))
        assert out[17] == 1e308
        assert out[101] == pytest.approx(1e308 / 3.0 + 1.7e308 / 3.0, rel=1e-15)

    def test_arithmetic_keeps_an_infinite_argument_infinite(self):
        # the evaluator itself, past the public positivity check: a
        # component that returns inf reaches it inside the kernel and scans
        fn = im.nary_arithmetic(3).fn
        assert fn(np.array([np.inf, 1.0, 1.0])) == np.inf
        xs = np.array([[np.inf, 1e308, 2.0], [1.0, 1e308, 3.0], [1.0, 1e308, 4.0]])
        assert np.array_equal(fn(xs), [np.inf, 1e308, 3.0])

    @pytest.mark.parametrize("n", [3, 8, 9, 16])
    @pytest.mark.parametrize("make", [im.nary_arithmetic, im.nary_geometric])
    def test_a_lane_does_not_depend_on_how_the_call_is_batched(self, make, n):
        # random vectors plus overflowing ones (lanes the arithmetic mean
        # redoes as max * mean(x / max)); each column evaluated alone, as
        # an n-vector or an (n, 1) stack, gives the stacked call's bits
        xs = random_vectors(n, 1000, lo=1e-300, hi=1e300)
        xs[:, 10:20] = (sys.float_info.max / np.arange(1.0, n + 1.0))[:, None]
        xs[0, 20:30] = sys.float_info.max
        fn = make(n).fn
        stacked = fn(xs)
        assert np.isfinite(stacked).all()
        for j in range(xs.shape[1]):
            assert fn(xs[:, j]) == stacked[j]
            assert fn(xs[:, j:j + 1])[0] == stacked[j]

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_escape_ratio_at_the_top_of_the_float_range(self, n):
        top = sys.float_info.max
        for x in (top / n, 1e308, top):
            ratio = im.counterexample_ratio(n, 0.5, x)
            assert abs(ratio - (n - 1)) < 1e-12 * n

    def test_escape_ratio_is_continuous_across_the_rescaled_range(self):
        # above DBL_MAX / n the ratio is evaluated at (1/x, 1, ..., 1)
        below = im.counterexample_ratio(3, 0.25, sys.float_info.max / 3 * 0.99)
        above = im.counterexample_ratio(3, 0.25, sys.float_info.max / 3 * 1.01)
        assert below == pytest.approx(above, rel=1e-14)


class TestNaryMeannessScan:
    def test_passes_for_the_atoms(self):
        cfg = im.ScanConfig(points_per_axis=16)
        for n in (2, 3, 5):
            assert im.check_nary_meanness(im.nary_arithmetic(n), cfg).passed
            assert im.check_nary_meanness(im.nary_geometric(n), cfg).passed

    def test_witness_layout(self):
        An = im.nary_arithmetic(3)
        Gn = im.nary_geometric(3)
        N = im.nary_general_base(An, (An, Gn, Gn), 0.5)
        report = im.check_nary_meanness(N, im.ScanConfig(points_per_axis=16))
        assert not report.passed
        assert len(report.witness) == 4
        args = np.asarray(report.witness[:-1])
        value = report.witness[-1]
        assert_allclose(N(args), value, rtol=1e-15)

    def test_a_stacks_only_subject_names_the_raising_column(self):
        # the subject accepts (n, m) stacks only and raises on every
        # column with an entry above 5e5; the first such column is the
        # first ray point (1, x, x) past 5e5
        def stacks_only(xs):
            if xs.ndim != 2 or np.any(xs > 5e5):
                raise ValueError("refused column")
            return im.nary_arithmetic(3).fn(xs)

        cfg = im.ScanConfig(points_per_axis=16)
        report = im.check_nary_meanness(im.NaryMean(stacks_only, 3, "stacks"), cfg)
        ray = np.geomspace(*cfg.domain, 256)
        first = ray[ray > 5e5][0]
        assert report.detail == "evaluation failed: refused column"
        assert report.witness == (1.0, first, first)
        assert report.samples_checked == 11 * 256

    def test_raising_evaluator_reported_not_raised(self):
        def explode(xs):
            raise ValueError("no vectors accepted")

        broken = im.NaryMean(explode, 3, "broken")
        report = im.check_nary_meanness(broken,
                                        im.ScanConfig(points_per_axis=16))
        assert not report.passed
        assert report.detail.startswith("evaluation failed")


@pytest.mark.parametrize("seed, n, m, domain", [
    (0, 3, 4096, (1e-6, 1e6)),
    (7, 5, 9216, (1e-3, 1e3)),
    (11, 2, 100, (0.5, 2.0)),
])
def test_nary_scan_samples_the_ray_and_the_earlier_draws(seed, n, m, domain):
    # the scan evaluates the ray (1, x, ..., x) and then 10*m log-uniform
    # vectors drawn as exp(Generator.uniform(log lo, log hi, (n, 10*m)))
    cfg = im.ScanConfig(domain=domain, points_per_axis=math.isqrt(m), seed=seed)
    assert cfg.points_per_axis ** 2 == m
    seen = []

    def recording(xs):
        seen.append(xs.copy())
        return np.mean(xs, axis=0)

    report = im.check_nary_meanness(im.NaryMean(recording, n, "recording"), cfg)
    assert report.passed
    lo, hi = domain
    ray = np.ones((n, m))
    ray[1:, :] = np.geomspace(lo, hi, m)
    rng = np.random.default_rng(seed)
    rand = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, 10 * m)))
    assert np.array_equal(np.concatenate(seen, axis=1), np.concatenate([ray, rand], axis=1))
