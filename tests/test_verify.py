"""Scan machinery: determinism, witness soundness, and failure reporting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im
from invmeans.verify import (_dominating, _log_uniform, _pair_samples, _scale_factors,
                             _strict)

A = im.classical("arithmetic")
H = im.classical("harmonic")
G = im.classical("geometric")

CFG = im.ScanConfig(points_per_axis=16)
# the widest domain of the CLI's --grid 1e-300:1e300:16
WIDE = im.ScanConfig(domain=(1e-300, 1e300), points_per_axis=16)
# 11,288 lanes: one full block of means._BLOCK = 8,192 lanes and a partial one
BIG = im.ScanConfig(points_per_axis=32)


def _per_scan(calls, n):
    """Group recorded (a, b) calls into consecutive runs of n lanes, one per scan."""
    groups, seen = [], 0
    for a, b in calls:
        if seen % n == 0:
            groups.append([])
        groups[-1].append((a, b))
        seen += np.size(a)
    return groups


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


def _concatenated_samples(cfg):
    """The sample set built from parts and concatenated, as it was first written."""
    lo, hi = cfg.domain
    n = cfg.points_per_axis
    axis = np.geomspace(lo, hi, n)
    gx, gy = np.meshgrid(axis, axis)
    parts_x, parts_y = [gx.ravel()], [gy.ravel()]
    center = math.sqrt(lo * hi)
    probes = []
    for k in range(1, 13):
        ratio = 10.0 ** k
        if ratio > hi / lo:
            break
        probes.extend([(center * math.sqrt(ratio), center / math.sqrt(ratio)),
                       (center / math.sqrt(ratio), center * math.sqrt(ratio))])
    if probes:
        px, py = zip(*probes)
        parts_x.append(np.asarray(px, dtype=float))
        parts_y.append(np.asarray(py, dtype=float))
    rng = np.random.default_rng(cfg.seed)
    m = 10 * n * n
    llo, lhi = math.log(lo), math.log(hi)
    parts_x.append(np.exp(rng.uniform(llo, lhi, m)))
    parts_y.append(np.exp(rng.uniform(llo, lhi, m)))
    return np.concatenate(parts_x), np.concatenate(parts_y)


# 192 points per axis: 405,528 lanes, 50 blocks
N192 = im.ScanConfig(points_per_axis=192, seed=3)

ODD_DOMAINS = [
    (0.00038904809442673744, 38.904809442673745),  # the 10^5 probe rounds past hi
    (1e-300, 1e300),
    (0.1, 0.3),
    (3.3e-7, 7.7e5),
    (2.2e-308, 1.7e308),
]


class TestSampling:
    @pytest.mark.parametrize("cfg", [
        im.DEFAULT_CONFIG, N192, CFG,
        im.ScanConfig(domain=(1e-3, 1e3), points_per_axis=9, seed=11),
        im.ScanConfig(domain=(0.5, 2.0), points_per_axis=40, seed=5),
    ])
    def test_in_place_fill_equals_the_concatenated_parts(self, cfg):
        x, y = _pair_samples(cfg)
        want_x, want_y = _concatenated_samples(cfg)
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
        assert not x.flags.writeable and not y.flags.writeable

    @pytest.mark.parametrize("domain", ODD_DOMAINS)
    def test_every_sample_lies_in_the_domain(self, domain):
        cfg = im.ScanConfig(domain=domain, points_per_axis=8)
        lo, hi = cfg.domain
        for v in _pair_samples(cfg):
            assert lo <= v.min() and v.max() <= hi

    def test_a_probe_past_the_domain_end_does_not_break_the_flag_scan(self):
        cfg = im.ScanConfig(domain=ODD_DOMAINS[0], points_per_axis=8)
        report = im.check_flags(im.power_mean(2), cfg)
        assert report.passed and report.samples_checked > 0

    def test_affine_draws_equal_generator_uniform(self):
        x, _ = _pair_samples(N192)
        assert x.size == 405528
        llo, lhi = math.log(1e-6), math.log(1e6)
        got = _log_uniform(np.random.default_rng(9), llo, lhi, np.empty(x.size))
        assert np.array_equal(got, np.exp(np.random.default_rng(9).uniform(llo, lhi, x.size)))
        low = np.log(x)
        got = _log_uniform(np.random.default_rng(9), low, lhi, np.empty(x.size))
        assert np.array_equal(got, np.exp(np.random.default_rng(9).uniform(low, lhi)))

    def test_block_draws_equal_generator_uniform(self):
        x, y = _pair_samples(N192)
        lhi = math.log(N192.domain[1])
        rng = np.random.default_rng(N192.seed + 1)
        lam = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), x.size))
        lam[:4] = (1e-3, 1.0, 7.5, 1e3)
        assert np.array_equal(np.concatenate([c for c, in _scale_factors(N192, x, y)]), lam)
        rng = np.random.default_rng(N192.seed + 2)
        # the dominating draws are clamped onto [x, hi] and [y, hi]
        x2 = np.maximum(np.exp(rng.uniform(np.log(x), lhi)), x)
        y2 = np.maximum(np.exp(rng.uniform(np.log(y), lhi)), y)
        got_x2, got_y2 = (np.concatenate(c) for c in zip(*_dominating(N192, x, y)))
        assert np.array_equal(got_x2, x2) and np.array_equal(got_y2, y2)

    # 1e11 points per axis pass numpy's largest dimension (ValueError);
    # 2e7 ask for petabytes in every sampler, past any address space, so
    # no allocation grants them (MemoryError)
    @pytest.mark.parametrize("n", [10**11, 2 * 10**7])
    @pytest.mark.parametrize("check", [
        lambda cfg: im.check_meanness(A, cfg),
        lambda cfg: im.check_invariance(im.general_pair(A, A, G, 0.5), cfg),
        lambda cfg: im.check_flags(A, cfg),
        lambda cfg: im.check_trace_meanness(A, cfg),
        lambda cfg: im.check_monotone_trace(A, cfg),
        lambda cfg: im.check_exchange_property(im.builtin_cone("lower"), cfg=cfg),
        lambda cfg: im.check_nary_meanness(im.nary_arithmetic(3), cfg),
    ])
    def test_a_sample_set_too_large_to_allocate_is_a_parameter_error(self, check, n):
        with pytest.raises(im.ParameterError, match=f"points_per_axis={n}: .* too large"):
            check(im.ScanConfig(points_per_axis=n))

    def test_a_new_set_is_built_after_the_old_one_is_dropped(self):
        # the cache holds one set; the previous one must be gone before
        # the next is allocated, or a fresh config briefly holds two
        first, second = (im.ScanConfig(points_per_axis=128, seed=s) for s in (901, 902))
        tracemalloc.start()
        try:
            one_set = sum(v.nbytes for v in _pair_samples(first))
            tracemalloc.reset_peak()
            _pair_samples(second)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert one_set <= peak < 1.5 * one_set

    @pytest.mark.parametrize("cfg", [
        im.DEFAULT_CONFIG, N192, im.ScanConfig(domain=ODD_DOMAINS[0], points_per_axis=8),
    ])
    def test_dominating_draws_dominate(self, cfg):
        # exp(log x) rounds below x on some lanes (x = hi among them); the
        # monotone scan must still compare F(x, y) with a dominating pair
        x, y = _pair_samples(cfg)
        x2, y2 = (np.concatenate(c) for c in zip(*_dominating(cfg, x, y)))
        assert (x2 >= x).all() and (y2 >= y).all()
        assert x2.max() <= cfg.domain[1] and y2.max() <= cfg.domain[1]


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
        # F(x, y) once on every lane, shared by the four scans, plus the
        # swapped, scaled and shifted evaluations block by block; BIG has
        # two blocks
        calls = []

        def recording(x, y):
            calls.append((x, y))
            return A.fn(x, y)

        F = dataclasses.replace(A, fn=recording)
        assert F.symmetric and F.homogeneous and F.monotone and F.strict
        assert im.check_flags(F, BIG) == im.check_flags(A, BIG)
        x, y = _pair_samples(BIG)
        assert sum(np.size(a) for a, _ in calls) == 4 * x.size
        assert calls[0][0] is x and calls[0][1] is y
        direct, swapped, _, _ = _per_scan(calls, x.size)
        assert len(direct) == 1 and len(swapped) == 2
        assert np.array_equal(np.concatenate([a for a, _ in swapped]), y)
        assert np.array_equal(np.concatenate([b for _, b in swapped]), x)

    def test_a_base_above_max_is_judged_relative_to_its_value(self):
        # an nt base is no mean: it reaches 512 max(x, y) at (4.3e275,
        # 2.9e106), where its rounding relative to max(x, y) read 8.8e-10
        N = im.parse_mean("nt:arithmetic:arithmetic:harmonic:0.9")
        report = im.check_flags(N, WIDE)
        assert report.passed, report
        assert report.worst_violation < 1e-11

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


class TestSensitivity:
    # a fault planted just above a check's tolerance fails the check

    def test_a_trace_slope_of_one_and_a_half_fails_the_trace_check(self):
        # f(x) = 1 + (x - 1)(1 + 0.5 exp(-(log x)^2)): the divided
        # difference (f(x) - 1)/(x - 1) reaches 1.5 next to x = 1
        def steep(x, y):
            r = x / y
            return y * (1.0 + (r - 1.0) * (1.0 + 0.5 * np.exp(-np.log(r) ** 2)))

        report = im.check_trace_meanness(im.Mean(steep, "steep", homogeneous=True), CFG)
        assert not report.passed
        assert 0.4 < report.worst_violation <= 0.5

    def test_an_asymmetry_of_one_part_in_a_billion_fails_the_symmetric_flag(self):
        def skewed(x, y):
            return A.fn(x, y) * (1.0 + 1e-9 * np.sign(x - y))

        report = im.check_flags(im.Mean(skewed, "skewed", symmetric=True), CFG)
        assert not report.passed
        assert report.detail == "flag falsified: symmetric"

    def test_a_non_homogeneity_of_one_part_in_a_billion_fails_an_nt_base(self):
        N = im.parse_mean("nt:arithmetic:arithmetic:harmonic:0.9")

        def planted(x, y):
            return N.fn(x, y) * (1.0 + 1e-9 * np.sin(np.log(np.maximum(x, y))))

        report = im.check_flags(dataclasses.replace(N, fn=planted), WIDE)
        assert not report.passed
        assert report.detail == "flag falsified: homogeneous"
        assert 1e-10 < report.worst_violation < 3e-9


class TestRealLineMeans:
    # a RealMean declares no homogeneity, so the scans that read the flag
    # see False, not a missing attribute

    def test_the_flags_of_the_arithmetic_mean_on_reals_hold(self):
        report = im.check_flags(im.ARITHMETIC_ON_REALS, CFG)
        assert report.passed and report.samples_checked > 0

    def test_a_translative_component_declares_no_scanned_flag(self):
        K = im.translative_pair(im.ARITHMETIC_ON_REALS, 0.5).K
        report = im.check_flags(K, CFG)
        assert report.passed and report.detail == "no flags declared"

    @pytest.mark.parametrize("check", [im.check_trace_meanness, im.check_monotone_trace])
    def test_a_trace_check_is_a_domain_error(self, check):
        with pytest.raises(im.DomainError, match="homogeneous"):
            check(im.ARITHMETIC_ON_REALS, CFG)

    def test_homogeneous_is_not_a_field(self):
        assert "homogeneous" not in {f.name for f in dataclasses.fields(im.RealMean)}
        assert im.translative_conjugate(A).homogeneous is False


# a subject's F(x, y) as it may come back from a raw evaluator, beside
# the same values as a float64 column of the arguments' shape
ODD_RESULTS = {
    "python float": (lambda x, y: 1.5, lambda x, y: np.full(np.shape(x), 1.5)),
    "python int": (lambda x, y: 2, lambda x, y: np.full(np.shape(x), 2.0)),
    "0-d array": (lambda x, y: np.array(1.5), lambda x, y: np.full(np.shape(x), 1.5)),
    "float32": (lambda x, y: np.minimum(x, y).astype(np.float32),
                lambda x, y: np.minimum(x, y).astype(np.float32).astype(np.float64)),
    "int64": (lambda x, y: np.ceil(np.maximum(x, y)).astype(np.int64),
              lambda x, y: np.ceil(np.maximum(x, y))),
}


@pytest.mark.parametrize("check", [im.check_meanness, im.check_flags])
@pytest.mark.parametrize("name", ODD_RESULTS)
def test_a_result_that_is_not_a_float64_column_is_broadcast(check, name):
    odd, column = ODD_RESULTS[name]
    flags = dict(symmetric=True, homogeneous=True, monotone=True, strict=True)
    got = check(im.Mean(odd, name, **flags), CFG)
    want = check(im.Mean(column, name, **flags), CFG)
    assert got == want and got.samples_checked > 0


def _earlier_strict(tol, x, y, v):
    """The strict scan's violations as first written: five gathered columns."""
    keep = np.abs(np.log(x / y)) >= 0.1
    v = v[keep]
    mn = np.minimum(x, y)[keep]
    mx = np.maximum(x, y)[keep]
    margin = np.minimum((v - mn) / mn, (mx - v) / mx)
    return 2.0 * tol - margin, (x[keep], y[keep], v)


@pytest.mark.parametrize("cfg", [im.DEFAULT_CONFIG, N192])
@pytest.mark.parametrize("name", ["arithmetic", "logarithmic", "min"])
def test_strict_violations_equal_the_earlier_formula(cfg, name):
    x, y = _pair_samples(cfg)
    v = im.classical(name).fn(x, y)
    got, got_cols = _strict(None, cfg.rel_tol, x, y, v)
    want, want_cols = _earlier_strict(cfg.rel_tol, x, y, v)
    assert np.array_equal(got, want)
    assert all(np.array_equal(g, w) for g, w in zip(got_cols, want_cols, strict=True))


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

    def test_meanness_hands_the_cached_lanes_whole_to_the_first_call(self):
        # a scan streams blocks, but the subject's first evaluation still
        # receives the cached (x, y) themselves, all lanes in one call
        calls = []

        def recording(x, y):
            calls.append((x, y))
            return A.fn(x, y)

        report = im.check_meanness(im.Mean(recording, "recording"), BIG)
        x, y = _pair_samples(BIG)
        assert x.size > 8192
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
        x, _ = _pair_samples(BIG)

        def refuse_swapped(a, b):
            # only the swapped call passes (a block of) x second
            if np.shares_memory(b, x):
                raise ValueError("swapped arguments")
            return A.fn(a, b)

        F = dataclasses.replace(A, fn=refuse_swapped)
        report = im.check_flags(F, BIG)
        assert not report.passed
        assert report.worst_violation == math.inf
        assert report.detail == "evaluation failed: swapped arguments"
        assert report.samples_checked == x.size

    @pytest.mark.parametrize("scan, width", [(1, 2), (2, 3), (3, 4)],
                             ids=["swapped", "scaled", "shifted"])
    def test_flag_replay_finds_the_first_sample_that_raises(self, scan, width):
        # a mean that raises on one lane of one flag scan's own call, in
        # the second block; the replay walks that call, so the witness is
        # that lane: (x, y), plus the scale factor or the shifted pair
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return A.fn(a, b)

        im.check_flags(dataclasses.replace(A, fn=recording), BIG)
        x, y = _pair_samples(BIG)
        a_all, b_all = (np.concatenate(c)
                        for c in zip(*_per_scan(calls, x.size)[scan]))
        j = x.size - 7
        ta, tb = a_all[j], b_all[j]

        def refuse(a, b):
            if np.any((a == ta) & (b == tb)):
                raise ValueError("refused lane")
            return A.fn(a, b)

        report = im.check_flags(dataclasses.replace(A, fn=refuse), BIG)
        assert report.detail == "evaluation failed: refused lane"
        assert report.worst_violation == math.inf
        assert len(report.witness) == width
        assert report.witness[:2] == (x[j], y[j])
        if scan == 2:
            lam = report.witness[2]
            assert (lam * x[j], lam * y[j]) == (ta, tb)
        if scan == 3:
            assert report.witness[2:] == (ta, tb)

    @pytest.mark.parametrize("j", [0, 9000, -1], ids=["first", "second-block", "last"])
    def test_a_fused_only_raise_names_its_lane(self, j):
        # only the pair's fused evaluator raises; K.fn and L.fn run the
        # kernel they were built with, so the witness must come from the
        # code the scan ran
        pair = im.general_pair(G, A, H, 0.5)
        x, y = _pair_samples(BIG)
        fused = pair.fused

        def refuse(a, b):
            if np.any((a == x[j]) & (b == y[j])):
                raise ValueError("refused lane")
            return fused(a, b)

        object.__setattr__(pair, "fused", refuse)
        report = im.check_invariance(pair, BIG)
        assert report.detail == "evaluation failed: refused lane"
        assert report.worst_violation == math.inf
        assert report.witness == (x[j], y[j])
        assert report.samples_checked == x.size

    def test_a_raise_replays_the_check_on_one_element_arrays(self):
        # a subject that accepts only arrays, raising on one lane
        x, y = _pair_samples(CFG)
        j = 1234

        def arrays_only(a, b):
            if np.ndim(a) != 1 or np.any((a == x[j]) & (b == y[j])):
                raise ValueError("refused")
            return A.fn(a, b)

        for check in (im.check_meanness, im.check_flags):
            report = check(dataclasses.replace(A, fn=arrays_only), CFG)
            assert report.detail == "evaluation failed: refused"
            assert report.witness == (x[j], y[j])

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
