"""Blocked evaluation, patched lanes and the fused pair evaluator keep every bit.

The multi-pass evaluators and the pair kernel run long 1-D inputs in
blocks of ``means._BLOCK`` lanes; the reference here is the same call
with blocking switched off (the block size raised past every input), so
nested evaluators run unblocked too.  The logarithmic, Stolarsky,
power, arithmetic, harmonic and n-ary arithmetic means compute one
branch per lane and patch the exceptional lanes; their reference is the
earlier formula that computed every branch on every lane and selected
one with ``np.where`` (the arithmetic and harmonic means also forked on
``isinstance(m, np.ndarray)`` for scalar calls).
"""

import dataclasses
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
    out["scalar"] = (2.0, 7.0)
    # relative gaps 1e-16 .. 1e-7 on both sides, all inside the series
    # cutover or just outside it, then the exact diagonal, then gaps up
    # to 1 (the log1p lanes of _gap_log)
    base = np.geomspace(1e-300, 1e300, 61)
    near = np.concatenate([-np.geomspace(1e-16, 1e-7, 19), np.geomspace(1e-16, 1e-7, 19)])
    out["near-diagonal"] = (np.repeat(base, near.size), np.outer(base, 1.0 + near).ravel())
    out["diagonal"] = (x, x.copy())
    narrow = np.geomspace(1e-7, 1.0, 29)
    out["narrow-gap"] = (np.repeat(base, narrow.size), np.outer(base, 1.0 + narrow).ravel())
    out["0d-near"] = (np.asarray(3.0), np.asarray(3.0 * (1.0 + 1e-12)))
    out["scalar-diagonal"] = (5.0, 5.0)
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


def _earlier_pow(x, t):
    if t == 1.0:
        return np.asarray(x, dtype=float)
    return np.exp(t * np.log(x))


def _earlier_gap_log(hi, lo, d):
    small = np.log1p(np.minimum(d, lo) / lo)
    return np.where(d > lo, np.log(hi) - np.log(lo), small)


def _earlier_logmean(x, y):
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    d = hi - lo
    near = d <= im.NEAR_DIAGONAL_RTOL * hi
    m = 0.5 * (hi + lo)
    u = d / (2.0 * m)
    series = m * (1.0 - u * u / 3.0)
    w = _earlier_gap_log(hi, lo, d)
    return np.where(near, series, d / np.where(near, 1.0, w))


def _earlier_stolarsky(r, s):
    q = 1.0 / (r - s)
    coeff = s / r

    def fn(x, y):
        hi = np.maximum(x, y)
        lo = np.minimum(x, y)
        d = hi - lo
        near = d <= im.NEAR_DIAGONAL_RTOL * hi
        m = 0.5 * (hi + lo)
        u = d / (2.0 * m)
        series = m * (1.0 + (r + s - 3.0) * (u * u) / 6.0)
        w = _earlier_gap_log(hi, lo, d)
        core = coeff * np.expm1(-r * w) / np.where(near, 1.0, np.expm1(-s * w))
        return np.where(near, series, hi * _earlier_pow(np.where(near, 1.0, core), q))

    return fn


def _earlier_power(p):
    def fn(x, y):
        b = np.maximum(x, y) if p > 0 else np.minimum(x, y)
        rx = _earlier_pow(x / b, p)
        ry = _earlier_pow(y / b, p)
        return b * _earlier_pow(0.5 * (rx + ry), 1.0 / p)

    return fn


def _earlier_arithmetic(x, y):
    m = 0.5 * (x + y)
    if isinstance(m, np.ndarray):
        over = np.isinf(m)
        if over.any():
            m = np.where(over, 0.5 * x + 0.5 * y, m)
    elif m == np.inf:
        m = 0.5 * x + 0.5 * y
    return m


def _earlier_harmonic_tiny(x, y):
    lo = np.minimum(x, y)
    return 2.0 * lo / (1.0 + lo / np.maximum(x, y))


def _earlier_harmonic(x, y):
    m = 2.0 / (1.0 / x + 1.0 / y)
    if isinstance(m, np.ndarray):
        under = m == 0.0
        if under.any():
            m = np.where(under, _earlier_harmonic_tiny(x, y), m)
    elif m == 0.0:
        m = _earlier_harmonic_tiny(x, y)
    return m


def _earlier_nary_arithmetic(xs):
    with np.errstate(over="ignore"):
        m = np.mean(xs, axis=0)
    over = np.isinf(m)
    if over.any():
        over &= np.isfinite(xs).all(axis=0)
        top = np.max(xs, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            m = np.where(over, top * np.mean(xs / top, axis=0), m)
    return m


def _gap_log_of(gap_log):
    def fn(x, y):
        hi, lo = np.maximum(x, y), np.minimum(x, y)
        return gap_log(hi, lo, hi - lo)

    return fn


def _earlier_formulas():
    """(current evaluator, earlier formula) by name."""
    out = {"gap_log": (_gap_log_of(means._gap_log), _gap_log_of(_earlier_gap_log)),
           "logarithmic": (L.fn, _earlier_logmean),
           "arithmetic": (A.fn, _earlier_arithmetic),
           "harmonic": (H.fn, _earlier_harmonic)}
    for r, s in ((3.0, 1.0), (-2.0, 1.0), (0.5, -0.5), (-3.0, -1.0), (2.0, -1.0)):
        out[f"stolarsky:{r!r}:{s!r}"] = (im.stolarsky(r, s).fn, _earlier_stolarsky(r, s))
    for p in (-3.0, -0.5, 0.5, 2.0, 7.0):
        out[f"power:{p!r}"] = (im.power_mean(p).fn, _earlier_power(p))
    return out


EARLIER = _earlier_formulas()


@pytest.mark.parametrize("inputs", INPUTS)
@pytest.mark.parametrize("name", EARLIER)
def test_patched_output_equals_the_earlier_formula(name, inputs):
    fn, earlier = EARLIER[name]
    x, y = INPUTS[inputs]
    # a RuntimeWarning is an error here: guarded lanes, the exact
    # diagonal included, raise none
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = fn(x, y)
    with np.errstate(all="ignore"):
        want = earlier(x, y)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("name", ["logarithmic", "stolarsky:3.0:1.0", "power:-0.5",
                                  "arithmetic", "harmonic"])
def test_non_finite_and_zero_lanes_equal_the_earlier_formula(name):
    # lanes a pair kernel can hand to a target mean after an overflow or
    # an underflow: inf, 0 and nan arguments.  Where the power mean's
    # factored argument b (the min, for p < 0) is 0 or inf, the earlier
    # formula is nan and the mean is its limit b
    fn, earlier = EARLIER[name]
    v = np.array([np.inf, 0.0, np.nan, 5.0])
    x, y = np.repeat(v, v.size), np.tile(v, v.size)
    with np.errstate(all="ignore"):
        want = earlier(x, y)
        if name.startswith("power:"):
            b = np.minimum(x, y)
            limit = (b == 0.0) | (b == np.inf)
            assert np.isnan(want[limit]).all()
            want[limit] = b[limit]
        assert np.array_equal(fn(x, y), want, equal_nan=True)


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 2.0])
def test_power_mean_takes_its_limits_at_zero_and_infinity(p):
    # b is max(x, y) for p > 0 and min(x, y) for p < 0.  When the other
    # argument is 0 (p > 0) or inf (p < 0) its term vanishes and the mean
    # is b / 2**(1/p); when b itself is inf (p > 0) or 0 (p < 0) the mean
    # is b.  nan arguments stay nan
    v = (0.0, 5.0, np.inf, np.nan)
    F = im.power_mean(p)
    vanishing = 0.0 if p > 0 else np.inf
    for x in v:
        for y in v:
            with np.errstate(all="ignore"):
                got = F.fn(x, y)
                lanes = F.fn(np.array([x, x]), np.array([y, y]))
            b, other = (max(x, y), min(x, y)) if p > 0 else (min(x, y), max(x, y))
            if np.isnan(x) or np.isnan(y):
                want = np.nan
            elif x != y and other == vanishing:
                want = b * 0.5 ** (1.0 / p)
            else:
                want = b
            # 0, inf and nan exactly, a finite limit to rounding
            assert_allclose(got, want, rtol=1e-15, err_msg=f"{(x, y)}")
            assert_allclose(lanes, [want, want], rtol=1e-15, err_msg=f"{(x, y)}")


# 0, subnormals, DBL_MIN, large finite values up to DBL_MAX, inf and nan:
# the lanes where the arithmetic mean's sum overflows and the harmonic
# mean's reciprocals do
DBL_MAX = np.finfo(float).max
EDGE = np.array([0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 0.5, 1.0,
                 3.0, 1e300, 8.98e307, DBL_MAX, np.inf, np.nan])


def _edge_inputs():
    """(x, y) on the edge values: whole grid, 0-d, 0-d against 1-D, outer product."""
    x, y = np.repeat(EDGE, EDGE.size), np.tile(EDGE, EDGE.size)
    out = {"grid": (x, y), "outer": (EDGE[:, None], EDGE[None, :])}
    for a in (5e-324, 1e300, DBL_MAX, np.inf):
        out[f"0d-{a!r}"] = (np.asarray(a), np.asarray(a))
        out[f"float64-{a!r}-vs-1d"] = (np.float64(a), EDGE)
        out[f"1d-vs-0d-{a!r}"] = (EDGE, np.asarray(a))
        out[f"float-{a!r}-vs-1d"] = (a, EDGE)
    out["0d-mixed"] = (np.asarray(DBL_MAX), np.asarray(8.98e307))
    out["0d-tiny"] = (np.asarray(5e-324), np.asarray(1.0))
    return out


EDGE_INPUTS = _edge_inputs()


@pytest.mark.parametrize("inputs", EDGE_INPUTS)
@pytest.mark.parametrize("name", ["arithmetic", "harmonic"])
def test_edge_lanes_equal_the_earlier_fork(name, inputs):
    fn, earlier = EARLIER[name]
    x, y = EDGE_INPUTS[inputs]
    with np.errstate(all="ignore"):
        got, want = fn(x, y), earlier(x, y)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


def test_calls_of_mixed_shapes_patch_their_overflow_and_underflow_lanes():
    # a 0-d or scalar argument against an array, and an outer product,
    # on lanes that take the patched branch
    with np.errstate(over="ignore"):
        assert np.array_equal(A(DBL_MAX, [1.0, DBL_MAX]), [0.5 * DBL_MAX + 0.5, DBL_MAX])
        assert np.array_equal(A([[DBL_MAX], [1.0]], [[DBL_MAX, 3.0]]),
                              [[DBL_MAX, 0.5 * DBL_MAX + 1.5], [0.5 * DBL_MAX + 0.5, 2.0]])
        assert np.array_equal(H(5e-324, [1.0, 5e-324]), [1e-323, 5e-324])
        assert np.array_equal(H([[5e-324], [1.0]], [[5e-324, 1.0]]),
                              [[5e-324, 1e-323], [1e-323, 1.0]])


def _nary_inputs(n):
    """(n, ...) argument stacks: rows alternate x and y of each input."""
    out = {f"{key}": np.stack(np.broadcast_arrays(*((x, y) * n)[:n]))
           for key, (x, y) in {**INPUTS, **EDGE_INPUTS}.items()}
    top = np.full((n, 7), 0.5)
    top[:, 3] = DBL_MAX  # one overflowing lane among finite ones
    out["one-overflow-lane"] = top
    out["zeros-and-overflow"] = np.repeat([[0.0, DBL_MAX, 1.0, 8.98e307]], n, axis=0)
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
def test_nary_arithmetic_equals_the_earlier_formula(n):
    fn = im.nary_arithmetic(n).fn
    for key, xs in _nary_inputs(n).items():
        with np.errstate(all="ignore"):
            want = _earlier_nary_arithmetic(xs)
            got = fn(xs)
        assert np.shape(got) == np.shape(want), key
        assert np.array_equal(got, want, equal_nan=True), key


def test_nary_overflow_lanes_raise_no_warning_beside_zero_lanes():
    # only the overflowing lanes are divided by their maximum, so lanes of
    # zeros no longer compute a discarded 0/0
    xs = np.repeat([[0.0, DBL_MAX, 1.0]], 3, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = im.nary_arithmetic(3).fn(xs)
    assert np.array_equal(got, [0.0, DBL_MAX, 1.0])


class TestPatch:
    def test_only_the_masked_lanes_are_evaluated_and_replaced(self):
        seen = []

        def fn(a, b):
            seen.append((a.copy(), b.copy()))
            return a + b

        a = np.arange(12.0).reshape(3, 4)
        b = 10.0 * a
        mask = a % 5 == 0
        out = means._patch(a * 0.0, mask, fn, a, b)
        assert np.array_equal(seen[0][0], a[mask]) and np.array_equal(seen[0][1], b[mask])
        assert np.array_equal(out, np.where(mask, a + b, 0.0))

    def test_an_empty_mask_calls_nothing(self):
        out = np.ones(5)
        assert means._patch(out, np.zeros(5, bool), pytest.fail) is out

    def test_a_0d_column_is_broadcast_to_the_masked_lanes(self):
        a = np.arange(6.0)
        mask = a > 3.0
        out = means._patch(a.copy(), mask, np.add, a, np.asarray(10.0))
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 14.0, 15.0])
        out = means._patch(a.copy(), mask, np.add, 20.0, a)
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 24.0, 25.0])

    def test_a_broadcast_column_is_gathered_at_the_masked_lanes(self):
        seen = []

        def fn(a, b):
            seen.append((a.copy(), b.copy()))
            return a * b

        row = np.arange(4.0)[None, :]
        col = np.arange(3.0)[:, None] + 10.0
        mask = np.zeros((3, 4), bool)
        mask[0, 1] = mask[2, 3] = True
        out = means._patch(np.zeros((3, 4)), mask, fn, row, col)
        assert np.array_equal(seen[0][0], [1.0, 3.0]) and np.array_equal(seen[0][1], [10.0, 12.0])
        assert np.array_equal(out, np.where(mask, row * col, 0.0))

    @pytest.mark.parametrize("mask", [True, False, np.bool_(True), np.bool_(False)])
    def test_a_scalar_is_replaced_whole(self, mask):
        got = means._patch(2.0, mask, lambda a: a + 1.0, 5.0)
        assert got == (6.0 if mask else 2.0)


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


def _translative_pairs():
    conj = im.translative_conjugate(G)
    return {f"{name}-t={t!r}": im.translative_pair(N, t)
            for name, N in (("reals", im.ARITHMETIC_ON_REALS), ("conj-G", conj))
            for t in (-0.5, 0.0, 0.5)}


def _real_inputs():
    rng = np.random.default_rng(8)
    x, y = rng.uniform(-700.0, 700.0, (2, 2 * BLOCK + 1))
    return {"seeded": (x, y), "0d": (np.asarray(-3.0), np.asarray(2.5)),
            "scalar-y": (x, 3.5), "scalar": (1.5, -650.0)}


TRANSLATIVE_PAIRS = _translative_pairs()
REAL_INPUTS = _real_inputs()


class TestTranslativeFusedEvaluator:
    # the translative pair wires K, L and N(x, y) like a kernel pair

    @pytest.mark.parametrize("name", TRANSLATIVE_PAIRS)
    def test_evaluate_equals_the_separate_evaluators(self, name):
        pair = TRANSLATIVE_PAIRS[name]
        for x, y in REAL_INPUTS.values():
            k, l, m = pair.evaluate(x, y)
            assert np.array_equal(k, pair.K.fn(x, y))
            assert np.array_equal(l, pair.L.fn(x, y))
            assert np.array_equal(m, pair.target.fn(x, y))

    @pytest.mark.parametrize("name", TRANSLATIVE_PAIRS)
    def test_components_equal_the_earlier_formula(self, name):
        # K = tx + (N(x, y) - N(tx, ty)), L the same with ty, each of them
        # evaluating N twice
        pair = TRANSLATIVE_PAIRS[name]
        N, t = pair.target.fn, pair.t
        for x, y in REAL_INPUTS.values():
            shift = N(x, y) - N(t * x, t * y)
            assert np.array_equal(pair.K.fn(x, y), t * x + shift)
            assert np.array_equal(pair.L.fn(x, y), t * y + shift)

    @pytest.mark.parametrize("name", TRANSLATIVE_PAIRS)
    def test_report_matches_the_unfused_fallback(self, name):
        pair = TRANSLATIVE_PAIRS[name]
        fallback = dataclasses.replace(pair)
        assert pair.fused is not None and fallback.fused is None
        cfg = im.ScanConfig(points_per_axis=16)
        assert im.check_invariance(pair, cfg) == im.check_invariance(fallback, cfg)

    def test_a_copy_with_another_K_is_checked_against_it(self):
        pair = TRANSLATIVE_PAIRS["reals-t=0.5"]
        swapped = dataclasses.replace(pair, K=im.ARITHMETIC_ON_REALS)
        assert swapped.fused is None
        x, y = REAL_INPUTS["seeded"]
        assert np.array_equal(swapped.evaluate(x, y)[0], im.ARITHMETIC_ON_REALS.fn(x, y))
        assert not im.check_invariance(swapped).passed

    def test_an_argument_past_the_limit_raises_from_every_path(self):
        pair = TRANSLATIVE_PAIRS["conj-G-t=0.5"]
        x, y = (c.copy() for c in REAL_INPUTS["seeded"])
        x[BLOCK + 7] = 701.0
        for fn in (pair.K.fn, pair.L.fn, pair.evaluate):
            with pytest.raises(OverflowError, match="700"):
                fn(x, y)
