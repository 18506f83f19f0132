"""Bad input from outside is refused with a MeansError, never a bare numpy error.

Each case hands one public entry point a value that does not convert, a
shape that does not broadcast or a name that cannot be hashed, and
expects the ``MeansError`` subclass of the check that value fails.  The
parameter cases cover every parameter an entry point reads; the call
cases cover the four validated calls (``Mean``, ``RealMean``,
``NaryMean`` and ``TraceFn``).
"""

import numpy as np
import pytest

import invmeans as im

A = im.classical("arithmetic")
H = im.classical("harmonic")
A3 = im.nary_arithmetic(3)
PAIR = im.general_pair(im.classical("logarithmic"), A, H, 0.5)
TRACE = im.iterate_pair(PAIR, 1.0, 4.0)
LOWER = im.builtin_cone("lower")
R = im.ARITHMETIC_ON_REALS

P, D, S = im.ParameterError, im.DomainError, im.InvalidMeanSpec

CASES = {
    # parameters of the constructors
    "power_mean p": (P, lambda: im.power_mean("x")),
    "power_mean p list": (P, lambda: im.power_mean([1.0, 2.0])),
    "stolarsky r": (P, lambda: im.stolarsky("x", 1)),
    "stolarsky s": (P, lambda: im.stolarsky(2, None)),
    "log_pair t": (P, lambda: im.log_pair("x")),
    "self_complement_base t": (P, lambda: im.self_complement_base(A, "x")),
    "xy_pair t": (P, lambda: im.xy_pair(A, "x")),
    "general_pair t": (P, lambda: im.general_pair(A, A, H, "x")),
    "general_base t": (P, lambda: im.general_base(A, A, H, object())),
    "translative_pair t": (P, lambda: im.translative_pair(R, "x")),
    "nary_arithmetic n": (P, lambda: im.nary_arithmetic("x")),
    "nary_geometric n": (P, lambda: im.nary_geometric(float("inf"))),
    "nary_general_base t": (P, lambda: im.nary_general_base(A3, (A3,) * 3, "x")),
    "nary_invariant_tuple t": (P, lambda: im.nary_invariant_tuple(A3, (A3,) * 3, "x")),
    "counterexample_ratio n": (P, lambda: im.counterexample_ratio("x", 0.5, 2.0)),
    "counterexample_ratio t": (P, lambda: im.counterexample_ratio(3, "x", 2.0)),
    "counterexample_ratio x": (P, lambda: im.counterexample_ratio(3, 0.5, "x")),
    # parameters of the iteration and the scans
    "iterate_pair x0": (D, lambda: im.iterate_pair(PAIR, "x", 1)),
    "iterate_pair y0": (D, lambda: im.iterate_pair(PAIR, 1, [1, 2])),
    "iterate_pair rel_stop": (P, lambda: im.iterate_pair(PAIR, 1, 4, rel_stop="x")),
    "iterate_pair max_iter": (P, lambda: im.iterate_pair(PAIR, 1, 4, max_iter=float("nan"))),
    "ScanConfig points_per_axis": (P, lambda: im.ScanConfig(points_per_axis="x")),
    "ScanConfig points_per_axis inf": (P, lambda: im.ScanConfig(points_per_axis=float("inf"))),
    "ScanConfig domain of one": (P, lambda: im.ScanConfig(domain=(1.0,))),
    "ScanConfig domain of three": (P, lambda: im.ScanConfig(domain=(1.0, 2.0, 3.0))),
    "ScanConfig domain entry": (P, lambda: im.ScanConfig(domain=("x", 2.0))),
    "ScanConfig domain scalar": (P, lambda: im.ScanConfig(domain=1.0)),
    "ScanConfig rel_tol": (P, lambda: im.ScanConfig(rel_tol="x")),
    "ScanConfig seed": (P, lambda: im.ScanConfig(seed="x")),
    "invariant_value_along_trajectory rel_tol": (
        P, lambda: im.invariant_value_along_trajectory(PAIR, TRACE, rel_tol="x")),
    "check_exchange_property samples": (
        D, lambda: im.check_exchange_property(LOWER, samples=[["a", "b"]])),
    "check_exchange_property ragged samples": (
        D, lambda: im.check_exchange_property(LOWER, samples=[[1.0, 2.0], [1.0]])),
    # the validated calls
    "Mean string": (D, lambda: A("abc", 1)),
    "Mean complex": (D, lambda: A(1j, 1)),
    "Mean dict": (D, lambda: A(1, {})),
    "Mean shapes": (D, lambda: A([1.0, 2.0], [1.0, 2.0, 3.0])),
    "kernel pair K shapes": (D, lambda: PAIR.K([1.0, 2.0], [1.0, 2.0, 3.0])),
    "RealMean string": (D, lambda: R("x", 1)),
    "RealMean shapes": (D, lambda: R([1.0, 2.0], [1.0, 2.0, 3.0])),
    "NaryMean ragged": (D, lambda: im.nary_arithmetic(2)([[1], [1, 2]])),
    "NaryMean string": (D, lambda: A3(["a", "b", "c"])),
    "TraceFn string": (D, lambda: im.trace_of(A)("x")),
    # names that cannot be hashed
    "builtin_cone list": (S, lambda: im.builtin_cone([1])),
    "classical list": (S, lambda: im.classical([1])),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises_the_error_of_its_check(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: im.power_mean("x"), "power mean requires a finite exponent, got 'x'"),
    (lambda: im.power_mean("inf"), "power mean requires a finite exponent, got inf"),
    (lambda: im.stolarsky(1, "x"), "stolarsky mean requires finite r and s"),
    (lambda: im.ScanConfig(domain=(1.0,)), "scan domain must satisfy 0 < lower < upper"),
    (lambda: A("abc", 1), "arithmetic: arguments must be positive reals"),
    (lambda: R("x", 1), "arithmetic-on-reals: arguments must be finite reals"),
    (lambda: A([1.0, 2.0], [1.0, 2.0, 3.0]),
     "arithmetic: argument shapes (2,) and (3,) do not broadcast"),
    (lambda: im.classical([1]), "unknown mean identifier [1] (at position 0)"),
    (lambda: im.builtin_cone([1]), "unknown cone name [1]; expected one of"),
])
def test_a_refusal_names_its_check(call, message):
    with pytest.raises(im.MeansError) as info:
        call()
    assert str(info.value).startswith(message)


def test_a_refusal_is_still_a_value_error():
    with pytest.raises(ValueError):
        A(1j, 1)


def test_a_domain_of_two_entries_is_read_from_any_sequence():
    for domain in ([1, 100], np.array([1.0, 100.0]), (np.float32(1), 100)):
        assert im.ScanConfig(domain=domain).domain == (1.0, 100.0)


def test_out_of_range_values_keep_their_checks():
    # checked before the shapes, so mismatched shapes of a negative
    # argument still name the domain
    with pytest.raises(im.DomainError, match="positive reals"):
        A([-1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(im.DomainError, match="expected 3 arguments"):
        A3([-1.0, 2.0])


def test_broadcastable_shapes_still_broadcast():
    out = A(np.ones((2, 1)), np.full(3, 3.0))
    assert out.shape == (2, 3) and np.all(out == 2.0)
