"""Selection means: exchange, complements, and declared-structure checks."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im
import invmeans.projective as projective


def sample_pairs(n=2000, lo=1e-6, hi=1e6, seed=42):
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    y = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return x, y


class TestBuiltinSelections:
    def test_names(self):
        assert im.BUILTIN_CONE_NAMES == ("full", "empty", "lower", "upper",
                                         "mixed")

    def test_full_is_first_projection(self):
        P = im.projective_mean(im.builtin_cone("full"))
        x, y = sample_pairs()
        assert_allclose(P.fn(x, y), x, rtol=0)

    def test_empty_is_second_projection(self):
        P = im.projective_mean(im.builtin_cone("empty"))
        x, y = sample_pairs()
        assert_allclose(P.fn(x, y), y, rtol=0)

    def test_lower_is_min(self):
        P = im.projective_mean(im.builtin_cone("lower"))
        x, y = sample_pairs()
        assert_allclose(P.fn(x, y), np.minimum(x, y), rtol=0)

    def test_upper_is_max(self):
        P = im.projective_mean(im.builtin_cone("upper"))
        assert P(3, 5) == 5.0
        assert P(5, 3) == 5.0
        x, y = sample_pairs()
        assert_allclose(P.fn(x, y), np.maximum(x, y), rtol=0)

    def test_mixed_rule_flips_across_the_line(self):
        # below x + y = 2 the smaller argument wins, above it the larger
        P = im.projective_mean(im.builtin_cone("mixed"))
        assert P(0.5, 1.0) == 0.5
        assert P(1.0, 0.5) == 0.5
        assert P(3.0, 5.0) == 5.0
        assert P(5.0, 3.0) == 5.0

    def test_unknown_cone_name(self):
        with pytest.raises(im.InvalidMeanSpec, match="unknown cone name"):
            im.builtin_cone("sideways")

    def test_spec_strings(self):
        assert im.projective_mean(im.builtin_cone("lower")).spec == "proj:lower"


class TestComplementCone:
    def test_builtin_name_mapping(self):
        assert im.complement_cone(im.builtin_cone("full")).name == "empty"
        assert im.complement_cone(im.builtin_cone("empty")).name == "full"
        assert im.complement_cone(im.builtin_cone("lower")).name == "upper"
        assert im.complement_cone(im.builtin_cone("upper")).name == "lower"
        assert im.complement_cone(im.builtin_cone("mixed")).name == "not-mixed"

    def test_membership_negated(self):
        x, y = sample_pairs(500)
        for name in im.BUILTIN_CONE_NAMES:
            A = im.builtin_cone(name)
            B = im.complement_cone(A)
            assert np.array_equal(B.membership(x, y),
                                  ~np.asarray(A.membership(x, y)))

    def test_double_complement_restores_membership(self):
        x, y = sample_pairs(500)
        A = im.builtin_cone("lower")
        back = im.complement_cone(im.complement_cone(A))
        assert np.array_equal(back.membership(x, y), A.membership(x, y))

    def test_flags_survive(self):
        B = im.complement_cone(im.builtin_cone("mixed"))
        assert B.declared_asymmetric and not B.declared_cone


class TestExchangeProperty:
    def test_exact_for_all_builtins(self):
        cfg = im.ScanConfig(points_per_axis=16)
        for name in im.BUILTIN_CONE_NAMES:
            report = im.check_exchange_property(im.builtin_cone(name), cfg=cfg)
            assert report.passed, name
            assert report.worst_violation == 0.0, name

    def test_exact_for_a_user_set(self):
        # any membership rule splits {x, y} exactly between P and P'
        A = im.ConeSet(lambda x, y: np.asarray(x * x > y),
                       declared_asymmetric=False, declared_cone=False,
                       name="parabola")
        x, y = sample_pairs(3000)
        report = im.check_exchange_property(A, samples=np.column_stack([x, y]))
        assert report.passed
        assert report.worst_violation == 0.0

    def test_broken_selection_code_fails_the_check(self, monkeypatch):
        # the check runs the selection code the log and xy pairs run
        monkeypatch.setattr(projective, "_selections", lambda A, x, y: (x, x))
        cfg = im.ScanConfig(points_per_axis=16)
        report = im.check_exchange_property(im.builtin_cone("lower"), cfg=cfg)
        assert not report.passed
        assert report.worst_violation > 0.5

    @pytest.mark.parametrize("name", im.BUILTIN_CONE_NAMES)
    def test_selections_match_the_selection_means(self, name):
        A = im.builtin_cone(name)
        x, y = sample_pairs(4000)
        first, second = projective._selections(A, x, y)
        assert np.array_equal(im.projective_mean(A).fn(x, y), first)
        assert np.array_equal(
            im.projective_mean(im.complement_cone(A)).fn(x, y), second)

    def test_samples_shape_validated(self):
        with pytest.raises(im.DomainError, match=r"\(m, 2\)"):
            im.check_exchange_property(im.builtin_cone("full"),
                                       samples=np.ones(7))

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_samples_must_be_positive_and_finite(self, bad):
        for samples in ([[bad, 2.0], [1.0, 3.0]], [[1.0, 3.0], [2.0, bad]]):
            with pytest.raises(im.DomainError, match="positive finite"):
                im.check_exchange_property(im.builtin_cone("lower"),
                                           samples=samples)
        with pytest.raises(im.DomainError):
            im.check_exchange_property(im.builtin_cone("lower"),
                                       samples=[[-1, 2], [np.nan, 1]])

    def test_raising_membership_becomes_a_failed_report(self):
        def refuse(x, y):
            raise ValueError("no membership")

        A = im.ConeSet(refuse, declared_asymmetric=False, declared_cone=False)
        report = im.check_exchange_property(A, samples=[[1.0, 2.0], [3.0, 4.0]])
        assert not report.passed
        assert report.worst_violation == np.inf
        assert report.detail == "evaluation failed: no membership"
        assert report.witness == (1.0, 2.0)
        assert report.samples_checked == 2


class TestDeclaredStructure:
    # membership-level ground truth, independent of the flag scanner
    def _asymmetric_on_samples(self, A):
        x, y = sample_pairs(4000)
        off = np.abs(x - y) > 1e-12 * np.maximum(x, y)
        one = np.asarray(A.membership(x, y), dtype=bool)
        two = np.asarray(A.membership(y, x), dtype=bool)
        return bool(np.all(one[off] ^ two[off]))

    def _cone_on_samples(self, A):
        x, y = sample_pairs(4000)
        rng = np.random.default_rng(7)
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), x.size))
        base = np.asarray(A.membership(x, y), dtype=bool)
        scaled = np.asarray(A.membership(lam * x, lam * y), dtype=bool)
        return bool(np.all(base == scaled))

    def test_declared_asymmetric_matches_samples(self):
        for name in im.BUILTIN_CONE_NAMES:
            A = im.builtin_cone(name)
            assert self._asymmetric_on_samples(A) == A.declared_asymmetric, name

    def test_declared_cone_matches_samples(self):
        for name in im.BUILTIN_CONE_NAMES:
            A = im.builtin_cone(name)
            assert self._cone_on_samples(A) == A.declared_cone, name

    def test_selection_flags_follow_declarations(self):
        for name in im.BUILTIN_CONE_NAMES:
            A = im.builtin_cone(name)
            P = im.projective_mean(A)
            assert P.symmetric == A.declared_asymmetric, name
            assert P.homogeneous == A.declared_cone, name

    def test_flag_scan_passes_for_honest_declarations(self):
        cfg = im.ScanConfig(points_per_axis=16)
        for name in im.BUILTIN_CONE_NAMES:
            report = im.check_flags(im.projective_mean(im.builtin_cone(name)),
                                    cfg)
            assert report.passed, (name, report)

    def test_flag_scan_falsifies_symmetric_projection(self):
        P = im.projective_mean(im.builtin_cone("full"))
        lying = dataclasses.replace(P, symmetric=True)
        report = im.check_flags(lying, im.ScanConfig(points_per_axis=16))
        assert not report.passed
        assert report.detail == "flag falsified: symmetric"

    def test_flag_scan_falsifies_homogeneous_mixed_selection(self):
        # the mixed rule changes across x + y = 2, so scaling moves values
        P = im.projective_mean(im.builtin_cone("mixed"))
        lying = dataclasses.replace(P, homogeneous=True)
        report = im.check_flags(lying, im.ScanConfig(points_per_axis=16))
        assert not report.passed
        assert report.detail == "flag falsified: homogeneous"

    def test_mixed_selection_passes_as_declared(self):
        report = im.check_flags(im.projective_mean(im.builtin_cone("mixed")),
                                im.ScanConfig(points_per_axis=16))
        assert report.passed
