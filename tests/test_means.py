"""Catalog means: values, identities, flags, and near-diagonal accuracy."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import invmeans as im
from invmeans.means import _gap_log
from invmeans.verify import _pair_samples


def mp_logmean(x, y):
    """High-precision logarithmic mean, the oracle for near-diagonal paths."""
    return float(_mp_logmean(x, y))


def _mp_logmean(x, y):
    with mpmath.workdps(60):
        a, b = mpmath.mpf(x), mpmath.mpf(y)
        if a == b:
            return a
        return (a - b) / (mpmath.log(a) - mpmath.log(b))


def mp_stolarsky(r, s, x, y):
    """High-precision difference mean ((s/r)(x^r-y^r)/(x^s-y^s))^(1/(r-s))."""
    return float(_mp_stolarsky(r, s, x, y))


def _mp_stolarsky(r, s, x, y):
    with mpmath.workdps(60):
        a, b = mpmath.mpf(x), mpmath.mpf(y)
        if a == b:
            return a
        rr, ss = mpmath.mpf(r), mpmath.mpf(s)
        return ((ss / rr) * (a ** rr - b ** rr) / (a ** ss - b ** ss)) ** (1 / (rr - ss))


def _mp_gap_log(x, y):
    with mpmath.workdps(60):
        return abs(mpmath.log(mpmath.mpf(x)) - mpmath.log(mpmath.mpf(y)))


def log_grid(lo=1e-6, hi=1e6, n=41):
    return np.geomspace(lo, hi, n)


class TestCatalogValues:
    def test_arithmetic(self):
        assert im.classical("arithmetic")(1, 3) == 2.0

    def test_geometric(self):
        assert_allclose(im.classical("geometric")(2, 8), 4.0, rtol=1e-15)

    def test_harmonic(self):
        assert im.classical("harmonic")(1, 4) == 1.6

    def test_logarithmic(self):
        assert_allclose(im.classical("logarithmic")(2, 1),
                        1.0 / np.log(2.0), rtol=1e-15)

    def test_selections(self):
        assert im.classical("min")(3, 5) == 3.0
        assert im.classical("max")(3, 5) == 5.0
        assert im.classical("proj1")(3, 5) == 3.0
        assert im.classical("proj2")(3, 5) == 5.0

    def test_power_values(self):
        # p = 2 is the root mean square, p = -1 the harmonic mean
        assert_allclose(im.power_mean(2)(1, 7), 5.0, rtol=1e-15)
        assert_allclose(im.power_mean(-1)(1, 4), 1.6, rtol=1e-15)

    def test_power_zero_is_geometric(self):
        assert im.power_mean(0) is im.classical("geometric")
        assert im.parse_mean("power:0") is im.classical("geometric")

    def test_diagonal_identity(self):
        x = log_grid()
        for name in im.CLASSICAL_NAMES:
            assert_allclose(im.classical(name)(x, x), x, rtol=1e-12,
                            err_msg=name)

    def test_scalar_in_float_out(self):
        out = im.classical("arithmetic")(1, 3)
        assert isinstance(out, float)

    def test_array_broadcast(self):
        x = np.array([1.0, 2.0, 3.0])
        out = im.classical("arithmetic")(x, 1.0)
        assert_allclose(out, [1.0, 1.5, 2.0], rtol=1e-15)

    def test_a_float64_array_reaches_the_evaluator_uncopied(self):
        # a validated call casts only what is not float64 already
        seen = []

        def spy(*args):
            seen.append(args)
            return args[0]

        x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        im.Mean(spy, "spy")(x, y)
        im.NaryMean(spy, 2, "spy")(x)
        assert seen[0][0] is x and seen[0][1] is y
        assert seen[1][0] is x

    # the intermediate sum still overflows, and numpy says so
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("big", [1e308, np.finfo(float).max])
    def test_arithmetic_does_not_overflow(self, big):
        assert im.classical("arithmetic")(big, big) == big
        assert im.classical("arithmetic")(big, 1.0) == 0.5 * big

    @pytest.mark.parametrize("tiny", [5e-324, 1e-323, np.finfo(float).tiny])
    def test_arithmetic_stays_between_subnormal_arguments(self, tiny):
        assert im.classical("arithmetic")(tiny, tiny) == tiny
        mixed = im.classical("arithmetic")([tiny, 5e-324], [5e-324, 1e308])
        assert np.all(mixed >= 5e-324)
        assert mixed[1] == 0.5 * 1e308

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_arithmetic_redoes_only_the_overflowing_lanes(self):
        rng = np.random.default_rng(3)
        x = np.exp(rng.uniform(-700.0, 700.0, 100_000))
        y = np.exp(rng.uniform(-700.0, 700.0, 100_000))
        x[::50] = np.finfo(float).max
        y[::100] = np.finfo(float).max
        with np.errstate(over="ignore"):
            midpoint = 0.5 * (x + y)
        out = im.classical("arithmetic")(x, y)
        finite = np.isfinite(midpoint)
        assert 0 < np.count_nonzero(~finite) < 100_000
        assert np.array_equal(out[finite], midpoint[finite])
        assert np.array_equal(out[~finite], 0.5 * x[~finite] + 0.5 * y[~finite])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_harmonic_stays_between_tiny_arguments(self):
        # subnormal and tiny normal arguments, where the reciprocals overflow
        tiny = [5e-324, 1e-323, 2.5e-322, 1e-315, 1e-310, 6e-309, 1e-308,
                np.finfo(float).tiny, 3e-308, 1e-307, 1e-300, 1.0]
        x, y = (a.ravel() for a in np.meshgrid(tiny, tiny))
        H = im.classical("harmonic")
        out = H(x, y)
        for a, b, got in zip(x, y, out):
            assert H(a, b) == got
            assert min(a, b) <= got <= max(a, b), (a, b, got)
            with mpmath.workdps(60):
                exact = float(2 / (1 / mpmath.mpf(a) + 1 / mpmath.mpf(b)))
            assert abs(got - exact) <= 4 * np.finfo(float).eps * exact + 5e-324, (a, b)
        assert H(1e-308, 1e-308) == 1e-308
        assert H(5e-324, 1.0) == 1e-323

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_harmonic_redoes_only_the_underflowing_lanes(self):
        rng = np.random.default_rng(4)
        x = np.exp(rng.uniform(-745.0, 700.0, 100_000))
        y = np.exp(rng.uniform(-745.0, 700.0, 100_000))
        with np.errstate(over="ignore"):
            plain = 2.0 / (1.0 / x + 1.0 / y)
        out = im.classical("harmonic")(x, y)
        kept = plain != 0.0
        assert 0 < np.count_nonzero(~kept) < 100_000
        assert np.array_equal(out[kept], plain[kept])
        assert np.all(out >= np.minimum(x, y))

    def test_catalog_name_order_is_stable(self):
        assert im.CLASSICAL_NAMES == (
            "arithmetic", "geometric", "harmonic", "logarithmic",
            "min", "max", "proj1", "proj2",
        )


# label, spec, symmetric, homogeneous, monotone, strict: written out so the
# shared catalog rule cannot drift
CATALOG_TABLE = [
    ("arithmetic", "arithmetic", True, True, True, True),
    ("geometric", "geometric", True, True, True, True),
    ("harmonic", "harmonic", True, True, True, True),
    ("logarithmic", "logarithmic", True, True, True, True),
    ("min", "min", True, True, True, False),
    ("max", "max", True, True, True, False),
    ("proj1", "proj1", False, True, True, False),
    ("proj2", "proj2", False, True, True, False),
    ("power:2.0", "power:2.0", True, True, True, True),
    ("stolarsky:3.0:1.0", "stolarsky:3.0:1.0", True, True, True, True),
]


@pytest.mark.parametrize("row", CATALOG_TABLE, ids=[r[0] for r in CATALOG_TABLE])
def test_catalog_labels_specs_and_flags(row):
    label = row[0]
    if label.startswith("power:"):
        M = im.power_mean(2)
    elif label.startswith("stolarsky:"):
        M = im.stolarsky(3, 1)
    else:
        M = im.classical(label)
    assert (M.label, M.spec, M.symmetric, M.homogeneous, M.monotone, M.strict) == row


def test_the_table_covers_the_catalog():
    assert [r[0] for r in CATALOG_TABLE[:len(im.CLASSICAL_NAMES)]] == list(im.CLASSICAL_NAMES)


class TestConstructorErrors:
    def test_unknown_name(self):
        with pytest.raises(im.InvalidMeanSpec, match="unknown mean identifier"):
            im.classical("median")

    def test_power_needs_number(self):
        with pytest.raises(im.InvalidMeanSpec, match="expected a number") as info:
            im.parse_mean("power:two")
        assert info.value.position == len("power:")

    @pytest.mark.parametrize("spec", ["power:2", "power:two", "power:inf", "power:2:3"])
    def test_classical_takes_catalog_names_only(self, spec):
        # the power form is the grammar's (parse_mean) and power_mean's
        with pytest.raises(im.InvalidMeanSpec, match="unknown mean identifier"):
            im.classical(spec)

    def test_stolarsky_equal_parameters(self):
        with pytest.raises(im.ParameterError, match="requires r != s"):
            im.stolarsky(1, 1)

    def test_stolarsky_zero_parameter(self):
        with pytest.raises(im.ParameterError, match="nonzero"):
            im.stolarsky(0, 1)
        with pytest.raises(im.ParameterError, match="nonzero"):
            im.stolarsky(2, 0)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
    def test_power_needs_finite_exponent(self, p):
        with pytest.raises(im.ParameterError, match="finite exponent"):
            im.power_mean(p)
        with pytest.raises(im.InvalidMeanSpec, match="finite number"):
            im.parse_mean(f"power:{p}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stolarsky_needs_finite_parameters(self, bad):
        with pytest.raises(im.ParameterError, match="finite r and s"):
            im.stolarsky(bad, 1.0)
        with pytest.raises(im.ParameterError, match="finite r and s"):
            im.stolarsky(2.0, bad)

    def test_nonpositive_arguments_rejected(self):
        A = im.classical("arithmetic")
        with pytest.raises(im.DomainError, match="positive"):
            A(-1, 1)
        with pytest.raises(im.DomainError, match="positive"):
            A(1, 0)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["arithmetic", "logarithmic"])
    def test_nonfinite_arguments_rejected(self, name, bad, position):
        M = im.classical(name)
        args = [2.0, 3.0]
        args[position] = bad
        with pytest.raises(im.DomainError, match="arguments must be positive reals"):
            M(*args)
        lanes = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
        lanes[position][1] = bad
        with pytest.raises(im.DomainError, match="arguments must be positive reals"):
            M(*lanes)

    def test_trace_needs_homogeneous_flag(self):
        lopsided = im.Mean(lambda x, y: 0.5 * (x + y), "plain")
        with pytest.raises(im.DomainError, match="homogeneous"):
            im.trace_of(lopsided)


class TestStolarskyIdentities:
    def test_two_one_is_arithmetic(self):
        S = im.stolarsky(2, 1)
        x, y = log_grid(1e-3, 1e3, 31), log_grid(1e3, 1e-3, 31)
        assert_allclose(S.fn(x, y), 0.5 * (x + y), rtol=1e-13)
        assert S(1, 3) == pytest.approx(2.0, rel=1e-15)

    def test_one_minus_one_is_geometric(self):
        S = im.stolarsky(1, -1)
        x, y = log_grid(1e-3, 1e3, 31), log_grid(1e2, 1e-4, 31)
        assert_allclose(S.fn(x, y), np.sqrt(x) * np.sqrt(y), rtol=1e-13)

    def test_heronian_closed_form(self):
        # (3/2, 1/2) collapses to (x + sqrt(xy) + y)/3
        S = im.stolarsky(1.5, 0.5)
        assert_allclose(S(1, 4), 7.0 / 3.0, rtol=1e-14)
        x, y = log_grid(1e-2, 1e2, 29), log_grid(1e2, 1e-2, 29)
        heronian = (x + np.sqrt(x * y) + y) / 3.0
        assert_allclose(S.fn(x, y), heronian, rtol=1e-13)

    def test_exponent_three_one_value(self):
        assert_allclose(im.stolarsky(3, 1)(1, 4), np.sqrt(7.0), rtol=1e-14)

    @pytest.mark.parametrize("r,s", [(2, 1), (3, 1), (1.5, 0.5), (1, -1),
                                     (-0.5, -1.5), (3, 0.5), (0.3, 0.7)])
    def test_logmean_quotient_identity(self, r, s):
        # STO_{r,s} = (L(x^r, y^r)/L(x^s, y^s))^(1/(r-s)) with L logarithmic
        L = im.classical("logarithmic")
        S = im.stolarsky(r, s)
        rng = np.random.default_rng(42)
        x = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 400))
        y = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 400))
        lhs = S.fn(x, y)
        rhs = (L.fn(x ** r, y ** r) / L.fn(x ** s, y ** s)) ** (1.0 / (r - s))
        assert_allclose(lhs, rhs, rtol=1e-10)


class TestSmallPower:
    # ((x**p + y**p)/2)**(1/p) rounds (1 + r**p)/2 to within 1e-16 of 1,
    # and the 1/p power multiplies that error by 1/|p|: the direct form
    # read 8.7e-11 at p = 1e-6 and the max at p = 1e-300

    @staticmethod
    def mp_power(p, x, y):
        with mpmath.workdps(int(-np.log10(abs(p))) + 60):
            pp = mpmath.mpf(p)
            return ((mpmath.mpf(x) ** pp + mpmath.mpf(y) ** pp) / 2) ** (1 / pp)

    @pytest.mark.parametrize(
        "p", [9.99e-3, -9.99e-3, 1e-3, 1e-6, 1e-10, 1e-15, 1e-300, -1e-300])
    def test_relative_error_against_mpmath(self, p):
        rng = np.random.default_rng(17)
        x, y = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), (2, 100)))
        got = im.power_mean(p)(x, y)
        worst = 0.0
        for a, b, v in zip(x, y, got):
            exact = self.mp_power(p, a, b)
            worst = max(worst, abs(float((mpmath.mpf(v) - exact) / exact)))
        assert worst <= 5e-15

    def test_a_vanishing_exponent_gives_the_geometric_mean(self):
        assert_allclose(im.power_mean(1e-300)(1.0, 4.0), 2.0, rtol=1e-15)
        assert_allclose(im.power_mean(-1e-300)(1.0, 4.0), 2.0, rtol=1e-15)


class TestNearDiagonalAccuracy:
    # gaps straddling the series cutover at relative width 1e-8
    GAPS = (1e-6, 1e-7, 2e-8, 1e-8, 5e-9, 1e-9, 1e-12, 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 3.7e200])
    def test_logarithmic(self, scale):
        L = im.classical("logarithmic")
        for gap in self.GAPS:
            x, y = scale, scale * (1.0 + gap)
            assert_allclose(L(x, y), mp_logmean(x, y), rtol=5e-14)

    @pytest.mark.parametrize("r,s", [(3, 1), (1.7, 0.3), (-0.5, -1.5)])
    def test_stolarsky(self, r, s):
        S = im.stolarsky(r, s)
        for gap in self.GAPS:
            x, y = 1.0, 1.0 + gap
            assert_allclose(S(x, y), mp_stolarsky(r, s, x, y), rtol=5e-14)

    def test_wide_gap_against_oracle(self):
        L = im.classical("logarithmic")
        S = im.stolarsky(3, 1)
        for x, y in [(1e-6, 1e6), (2.0, 3e5), (7e-4, 1.3)]:
            assert_allclose(L(x, y), mp_logmean(x, y), rtol=5e-14)
            assert_allclose(S(x, y), mp_stolarsky(3, 1, x, y), rtol=5e-14)

    def test_extreme_ratio_stays_finite_and_bounded(self):
        # quotient forms must survive ratios far beyond float overflow
        L = im.classical("logarithmic")
        S = im.stolarsky(3, 1)
        for x, y in [(1e300, 1e-300), (1e-280, 5e290)]:
            for F in (L, S):
                v = F(x, y)
                assert np.isfinite(v)
                assert min(x, y) <= v <= max(x, y)


def _ulps(got, exact) -> float:
    """|got - exact| in units of the last place of exact, a 60-digit mpf."""
    return abs(float((mpmath.mpf(got) - exact) / np.spacing(abs(float(exact)))))


def _log_gap_lanes():
    """Seeded (x, y) lanes: near the diagonal, on it, and far from it.

    ``near`` spreads relative gaps 1e-16 .. 10 over magnitudes 1e-300 ..
    1e300, on both sides of the diagonal; ``diagonal`` has x == y;
    ``far`` has max/min > DBL_MAX, where (max - min)/min overflows, and
    includes the pairs (1e-200, 1e200) and (1e-300, 1e300).
    """
    rng = np.random.default_rng(29)
    mag = 10.0 ** rng.uniform(-300.0, 300.0, 400)
    other = mag * (1.0 + 10.0 ** rng.uniform(-16.0, 1.0, 400))
    swap = rng.random(400) < 0.5
    near = (np.where(swap, other, mag), np.where(swap, mag, other))
    # decades apart, and the share of them below 1
    apart, below = rng.uniform(309.0, 600.0, 40), rng.uniform(0.0, 1.0, 40)
    lo, hi = -apart * below, apart * (1.0 - below)
    kept = (lo > -300.0) & (hi < 300.0)
    lo = 10.0 ** np.append(lo[kept], [-200.0, -300.0])
    hi = 10.0 ** np.append(hi[kept], [200.0, 300.0])
    swap = np.arange(lo.size) % 2 == 0
    far = (np.where(swap, hi, lo), np.where(swap, lo, hi))
    assert (np.log(hi) - np.log(lo) > np.log(np.finfo(float).max)).all()
    return {"near": near, "diagonal": (mag[:20], mag[:20].copy()), "far": far}


LOG_GAP_LANES = _log_gap_lanes()


def _gap_log_fn(x, y):
    hi, lo = np.maximum(x, y), np.minimum(x, y)
    return _gap_log(hi, lo, hi - lo)


def _stolarsky_subject(r, s):
    # (evaluator, 60-digit oracle, whether the parameters have both signs)
    return im.stolarsky(r, s).fn, lambda x, y: _mp_stolarsky(r, s, x, y), r * s < 0


LOG_GAP_SUBJECTS = {
    "gap_log": (_gap_log_fn, _mp_gap_log, False),
    "logarithmic": (im.classical("logarithmic").fn, _mp_logmean, False),
    **{f"stolarsky:{r!r}:{s!r}": _stolarsky_subject(r, s)
       for r, s in ((3.0, 1.0), (-3.0, -1.0), (-1.0, -2.0), (2.0, -1.0), (0.5, -0.5),
                    (-2.5, 0.5), (-2.0, 1.0))},
}


class TestLogGapAccuracy:
    """Max error in ulps against 60-digit mpmath on the log-gap evaluators.

    4 ulp on every lane, the exact diagonal and gaps past DBL_MAX
    included, so dropping the diagonal or the overflow patch fails.  One
    allowance: a Stolarsky mean with parameters of both signs scales by
    exp(-k*w), k in (0, 1), and the rounding of the log gap w (an ulp of
    a number up to 1,455) and of k*w reach the result through that
    exponent, as in any double formula; on the far lanes its bound is
    4 + 2*w ulps (the worst lane reads 1.06*w).
    """

    # _gap_log returns its guard 1.0 on the diagonal, tested below
    @pytest.mark.parametrize("name,lanes", [(name, lanes) for name in LOG_GAP_SUBJECTS
                                            for lanes in LOG_GAP_LANES
                                            if (name, lanes) != ("gap_log", "diagonal")])
    def test_max_ulp_error(self, name, lanes):
        fn, exact, mixed = LOG_GAP_SUBJECTS[name]
        x, y = LOG_GAP_LANES[lanes]
        for a, b, v in zip(x, y, fn(x, y)):
            bound = 4.0 + (2.0 * float(_mp_gap_log(a, b)) if mixed and lanes == "far" else 0.0)
            assert _ulps(v, exact(a, b)) <= bound, (a, b, v)

    def test_the_diagonal_returns_the_argument(self):
        # the log gap is 0 there, and _gap_log guards it with 1.0
        x, _ = LOG_GAP_LANES["diagonal"]
        for name, (fn, _, _) in LOG_GAP_SUBJECTS.items():
            assert np.array_equal(fn(x, x), 1.0 + 0.0 * x if name == "gap_log" else x), name


class TestFarRatios:
    # arguments more than 308 decades apart: a Stolarsky mean with a
    # negative parameter overflowed expm1 there (0.0 or nan, with a
    # RuntimeWarning), and the power mean's ratio o/b left the float range.
    # A RuntimeWarning fails these tests (pyproject's filterwarnings)

    @pytest.mark.parametrize("r,s,x,y", [(2.0, -1.0, 1e-200, 1e200),
                                         (-1.0, -2.0, 1e-300, 1e300),
                                         (-2.5, 0.5, 1e200, 1e-200),
                                         (0.5, -0.5, 1e-300, 1e300)])
    def test_stolarsky_with_a_negative_parameter(self, r, s, x, y):
        got = im.stolarsky(r, s)(x, y)
        assert _ulps(got, _mp_stolarsky(r, s, x, y)) <= 4.0 + 2.0 * float(_mp_gap_log(x, y))

    @pytest.mark.parametrize("r,s", [(-1.0, -2.0), (2.0, -1.0), (-2.5, 0.5)])
    def test_a_scan_across_600_decades_passes(self, r, s):
        cfg = im.ScanConfig(domain=(1e-300, 1e300))
        assert im.check_meanness(im.stolarsky(r, s), cfg).passed

    @pytest.mark.parametrize("p", [1e-3, -1e-3, 1e-2, -1e-2, 0.5, -0.5, 2.0, -3.0])
    @pytest.mark.parametrize("x,y", [(1e-200, 1e200), (1e300, 1e-300), (5e-324, 1.0),
                                     (1e-10, 1e300)])
    def test_power_mean(self, p, x, y):
        # log r = log o - log b carries the rounding of two logs up to 745
        # into the result, so the bound grows like |log(x/y)| ulps
        with mpmath.workdps(80):
            a, b, pp = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(p)
            exact = ((a ** pp + b ** pp) / 2) ** (1 / pp)
        got = im.power_mean(p)(x, y)
        assert _ulps(got, exact) <= 4.0 + abs(math.log(x) - math.log(y))


class TestStructuralIdentities:
    def test_symmetry(self):
        rng = np.random.default_rng(42)
        x = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 500))
        y = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 500))
        for name in ("arithmetic", "geometric", "harmonic", "logarithmic",
                     "min", "max"):
            F = im.classical(name)
            assert_allclose(F.fn(x, y), F.fn(y, x), rtol=1e-12, err_msg=name)

    def test_homogeneity(self):
        rng = np.random.default_rng(42)
        x = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 500))
        y = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 500))
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 500))
        for name in im.CLASSICAL_NAMES:
            F = im.classical(name)
            assert_allclose(F.fn(lam * x, lam * y), lam * F.fn(x, y),
                            rtol=1e-12, err_msg=name)

    def test_trace_reconstructs_the_mean(self):
        # homogeneous M satisfies M(x, y) = y * f(x/y) with f the trace
        rng = np.random.default_rng(42)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 300))
        y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 300))
        for name in ("arithmetic", "geometric", "logarithmic", "harmonic"):
            F = im.classical(name)
            f = im.trace_of(F)
            assert_allclose(y * f(x / y), F.fn(x, y), rtol=1e-12, err_msg=name)

    def test_symmetric_trace_identity(self):
        # symmetry in trace form: f(x) = x * f(1/x)
        x = log_grid(1e-5, 1e5, 101)
        for name in ("arithmetic", "geometric", "harmonic", "logarithmic"):
            f = im.trace_of(im.classical(name))
            assert_allclose(f(x), x * f(1.0 / x), rtol=1e-12, err_msg=name)

    def test_parsed_power_round_trip(self):
        F = im.parse_mean("power:2.0")
        G = im.power_mean(2)
        x = log_grid(1e-2, 1e2, 33)
        assert_allclose(F.fn(x, x[::-1]), G.fn(x, x[::-1]), rtol=0)

    def test_repr_and_labels(self):
        assert repr(im.classical("arithmetic")) == "Mean(arithmetic)"
        assert im.stolarsky(3, 1).label == "stolarsky:3.0:1.0"
        assert im.power_mean(2).spec == "power:2.0"


class TestEnvelopeProperty:
    @given(
        x=st.floats(min_value=1e-150, max_value=1e150),
        y=st.floats(min_value=1e-150, max_value=1e150),
        name=st.sampled_from(im.CLASSICAL_NAMES),
    )
    @settings(max_examples=200, deadline=None)
    def test_catalog_between_min_and_max(self, x, y, name):
        v = im.classical(name)(x, y)
        assert min(x, y) * (1.0 - 1e-12) <= v <= max(x, y) * (1.0 + 1e-12)

    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        y=st.floats(min_value=1e-3, max_value=1e3),
        r=st.floats(min_value=-4, max_value=4),
        s=st.floats(min_value=-4, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_stolarsky_between_min_and_max(self, x, y, r, s):
        if abs(r - s) < 1e-2 or abs(r) < 1e-2 or abs(s) < 1e-2:
            return
        v = im.stolarsky(r, s)(x, y)
        assert min(x, y) * (1.0 - 1e-12) <= v <= max(x, y) * (1.0 + 1e-12)
