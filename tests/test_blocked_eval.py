"""Blocked evaluation and the fused pair evaluator keep every bit.

The multi-pass evaluators and the pair kernel run long 1-D inputs in
blocks of ``means._BLOCK`` lanes; the reference here is the same call
with blocking switched off (the block size raised past every input), so
nested evaluators run unblocked too.
"""

import dataclasses
import sys

import numpy as np
import pytest

import invmeans as im
from invmeans import means
from invmeans.verify import _pair_samples

BLOCK = means._BLOCK

A = im.classical("arithmetic")
G = im.classical("geometric")
H = im.classical("harmonic")
L = im.classical("logarithmic")
S = im.stolarsky(3, 1)


def _catalog():
    out = {name: im.classical(name) for name in im.CLASSICAL_NAMES}
    for p in (-1.0, 0.5, 2.0):
        out[f"power:{p!r}"] = im.power_mean(p)
    for r, s in ((3.0, 1.0), (1.5, 0.5), (-2.0, 1.0)):
        out[f"stolarsky:{r!r}:{s!r}"] = im.stolarsky(r, s)
    return out


def _pairs():
    mixed = im.builtin_cone("mixed")
    return {
        "general": im.general_pair(L, A, H, 0.5),
        "general-S31": im.general_pair(S, im.power_mean(0.5), L, 0.75),
        "xy-mixed": im.xy_pair(im.power_mean(2.0), 0.25, mixed),
        "xy-full": im.xy_pair(A, -0.5, im.builtin_cone("full")),
        "log-lower": im.log_pair(0.5, im.builtin_cone("lower")),
        "log-mixed-t1": im.log_pair(1.0, mixed),
        "log-mixed-tm1": im.log_pair(-1.0, mixed),
    }


def _subjects():
    out = {name: M.fn for name, M in _catalog().items()}
    for name, pair in _pairs().items():
        out[f"{name}.K"] = pair.K.fn
        out[f"{name}.L"] = pair.L.fn
        out[f"{name}.evaluate"] = pair.evaluate
    out["general_base"] = im.general_base(A, A, H, 0.5).fn
    out["general_base-L"] = im.general_base(L, G, im.power_mean(2.0), 0.25).fn
    out["self_complement_base"] = im.self_complement_base(L, 0.5).fn
    out["self_complement_base-neg"] = im.self_complement_base(S, -0.75).fn
    return out


SUBJECTS = _subjects()


def _lanes(n, seed=5):
    """n log-uniform pairs with a diagonal and a near-diagonal share."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
    y = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
    y[::7] = x[::7]
    y[3::11] = x[3::11] * (1.0 + 1e-10)
    return x, y


def _inputs():
    out = {"scan-set": _pair_samples(im.DEFAULT_CONFIG)}
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        out[f"n={n}"] = _lanes(n)
    x, _ = _lanes(2 * BLOCK + 1)
    out["scalar-y"] = (x, 3.5)
    out["0d-y"] = (x, np.asarray(0.25))
    out["length1-x"] = (np.array([2.0]), x)
    axis = np.geomspace(1e-3, 1e3, 181)
    out["meshgrid"] = tuple(np.meshgrid(axis, axis))
    out["0d"] = (np.asarray(2.0), np.asarray(7.0))
    return out


INPUTS = _inputs()


def _as_tuple(v):
    return v if isinstance(v, tuple) else (v,)


@pytest.mark.parametrize("inputs", INPUTS)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_blocked_output_equals_unblocked(subject, inputs, monkeypatch):
    fn = SUBJECTS[subject]
    x, y = INPUTS[inputs]
    with np.errstate(all="ignore"):
        blocked = _as_tuple(fn(x, y))
        monkeypatch.setattr(means, "_BLOCK", sys.maxsize)
        direct = _as_tuple(fn(x, y))
    assert len(blocked) == len(direct)
    for b, d in zip(blocked, direct):
        assert np.shape(b) == np.shape(d)
        assert np.array_equal(b, d, equal_nan=True)


class TestBlockwise:
    @staticmethod
    def recording():
        sizes = []

        def fn(x, y):
            sizes.append((np.shape(x), np.shape(y)))
            return np.add(x, y), np.multiply(x, y)

        return sizes, means._blockwise(fn)

    def test_long_inputs_run_in_blocks_into_fresh_outputs(self):
        sizes, fn = self.recording()
        x, y = _lanes(2 * BLOCK + 1)
        s, p = fn(x, y)
        assert sizes == [((BLOCK,), (BLOCK,)), ((BLOCK,), (BLOCK,)), ((1,), (1,))]
        assert np.array_equal(s, x + y) and np.array_equal(p, x * y)
        assert s.flags.writeable and s.base is None

    def test_short_arguments_are_passed_whole(self):
        sizes, fn = self.recording()
        x, _ = _lanes(BLOCK + 1)
        fn(x, 2.0)
        fn(np.array([2.0]), x)
        assert sizes == [((BLOCK,), ()), ((1,), ()),
                         ((1,), (BLOCK,)), ((1,), (1,))]

    @pytest.mark.parametrize("inputs", ["n=8191", "n=8192", "meshgrid", "0d"])
    def test_direct_path(self, inputs):
        sizes, fn = self.recording()
        x, y = INPUTS[inputs]
        fn(x, y)
        assert sizes == [(np.shape(x), np.shape(y))]

    def test_incompatible_lengths_raise_as_unblocked(self):
        _, fn = self.recording()
        with pytest.raises(ValueError):
            fn(np.ones(BLOCK + 1), np.ones(BLOCK + 2))

    def test_nested_evaluators_are_not_blocked_twice(self):
        seen = []
        logmean = L.fn

        def record(x, y):
            seen.append(max(np.size(x), np.size(y)))
            return logmean(x, y)

        M = dataclasses.replace(L, fn=record)
        pair = im.general_pair(M, A, H, 0.5)
        x, y = _pair_samples(im.DEFAULT_CONFIG)
        pair.K.fn(x, y)
        blocks = -(-x.size // BLOCK)
        assert len(seen) == 2 * blocks  # M(x, y) and M(C^t, D^t) per block
        assert max(seen) == BLOCK


FUSED_PAIRS = {**_pairs(), "ad-hoc-AH-G": im.MeanPair(A, H, target=G)}


class TestFusedEvaluator:
    @pytest.mark.parametrize("name", FUSED_PAIRS)
    def test_report_matches_the_unfused_fallback(self, name):
        pair = FUSED_PAIRS[name]
        fallback = dataclasses.replace(pair)
        assert fallback.fused is None
        assert im.check_invariance(pair) == im.check_invariance(fallback)

    @pytest.mark.parametrize("name", FUSED_PAIRS)
    def test_evaluate_equals_the_separate_evaluators(self, name):
        pair = FUSED_PAIRS[name]
        for x, y in (INPUTS["scan-set"], INPUTS["0d"], INPUTS["scalar-y"]):
            k, l, m = pair.evaluate(x, y)
            assert np.array_equal(k, pair.K.fn(x, y))
            assert np.array_equal(l, pair.L.fn(x, y))
            assert np.array_equal(m, pair.target.fn(x, y))

    def test_kernel_pairs_carry_the_fused_evaluator(self):
        assert all(p.fused is not None for p in _pairs().values())
        assert FUSED_PAIRS["ad-hoc-AH-G"].fused is None

    def test_fused_evaluator_is_not_in_the_repr(self):
        assert "fused" not in repr(_pairs()["general"])

    def test_fused_evaluator_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            im.MeanPair(A, H, target=G, fused=lambda x, y: (x, y, x))
        with pytest.raises(ValueError):
            dataclasses.replace(_pairs()["general"], fused=None)

    @pytest.mark.parametrize("name", _pairs())
    def test_a_copy_with_another_K_is_checked_against_it(self, name):
        pair = _pairs()[name]
        swapped = dataclasses.replace(pair, K=A)
        assert swapped.fused is None
        k, l, m = swapped.evaluate(*INPUTS["scan-set"])
        assert np.array_equal(k, A.fn(*INPUTS["scan-set"]))
        rebuilt = im.MeanPair(A, pair.L, target=pair.target, t=pair.t,
                              spec=pair.spec)
        assert im.check_invariance(swapped) == im.check_invariance(rebuilt)
        assert not im.check_invariance(swapped).passed

    def test_a_copy_with_another_target_is_checked_against_it(self):
        pair = _pairs()["general"]
        report = im.check_invariance(dataclasses.replace(pair, target=H))
        assert not report.passed

    def test_a_perturbed_fused_L_fails_the_invariance_scan(self):
        pair = _pairs()["general"]
        assert im.check_invariance(pair).passed

        def skewed(x, y):
            k, l, m = pair.fused(x, y)
            return k, l * (1.0 + 1e-9), m

        skewed_pair = dataclasses.replace(pair)
        object.__setattr__(skewed_pair, "fused", skewed)
        report = im.check_invariance(skewed_pair)
        assert not report.passed
        assert report.worst_violation > 1e-10
