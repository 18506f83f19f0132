"""n-ary constructions: invariance survives, mean-ness escapes for n >= 3."""

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

    def test_raising_evaluator_reported_not_raised(self):
        def explode(xs):
            raise ValueError("no vectors accepted")

        broken = im.NaryMean(explode, 3, "broken")
        report = im.check_nary_meanness(broken,
                                        im.ScanConfig(points_per_axis=16))
        assert not report.passed
        assert report.detail.startswith("evaluation failed")
