"""Textual mean expressions: grammar coverage and round-trip fidelity."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im
from invmeans import specs


def random_pairs(n=100, seed=42):
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    return x, y


class TestAtoms:
    def test_catalog_names_parse(self):
        for name in im.CLASSICAL_NAMES:
            assert im.parse_mean_spec(name) is im.classical(name)

    def test_power(self):
        F = im.parse_mean_spec("power:2")
        x, y = random_pairs()
        assert_allclose(F.fn(x, y), im.power_mean(2).fn(x, y), rtol=0)

    def test_stolarsky(self):
        F = im.parse_mean_spec("stolarsky:1:0.5")
        assert_allclose(F(1, 4), im.stolarsky(1, 0.5)(1, 4), rtol=0)

    def test_projection(self):
        F = im.parse_mean_spec("proj:lower")
        x, y = random_pairs()
        assert_allclose(F.fn(x, y), np.minimum(x, y), rtol=0)


class TestConstructors:
    def test_self_complement_base(self):
        F = im.parse_mean_spec("mt:logarithmic:0.5")
        S = im.stolarsky(1, 0.5)
        x, y = random_pairs()
        assert_allclose(F.fn(x, y), S.fn(x, y), rtol=1e-10)

    def test_nested_parentheses(self):
        F = im.parse_mean_spec("mt:(power:2):0.5")
        direct = im.self_complement_base(im.power_mean(2), 0.5)
        x, y = random_pairs()
        assert_allclose(F.fn(x, y), direct.fn(x, y), rtol=0)

    def test_deeply_nested(self):
        F = im.parse_mean_spec("mt:(mt:(power:2):0.5):0.25")
        assert isinstance(F, im.Mean)
        assert F.symmetric and F.homogeneous

    def test_general_base(self):
        F = im.parse_mean_spec("nt:arithmetic:arithmetic:harmonic:0.5")
        direct = im.general_base(im.classical("arithmetic"),
                                 im.classical("arithmetic"),
                                 im.classical("harmonic"), 0.5)
        x, y = random_pairs()
        assert_allclose(F.fn(x, y), direct.fn(x, y), rtol=0)

    def test_pair_returns_a_pair(self):
        pair = im.parse_mean_spec("pair:arithmetic:arithmetic:harmonic:0.5")
        assert isinstance(pair, im.MeanPair)
        assert_allclose(pair.K(1, 4), 25.0 / 9.0, rtol=1e-14)

    def test_pair_with_projective_components(self):
        pair = im.parse_mean_spec(
            "pair:arithmetic:(proj:lower):(proj:upper):0.5")
        direct = im.xy_pair(im.classical("arithmetic"), 0.5,
                            im.builtin_cone("lower"))
        x, y = random_pairs()
        assert_allclose(pair.K.fn(x, y), direct.K.fn(x, y), rtol=0)
        assert_allclose(pair.L.fn(x, y), direct.L.fn(x, y), rtol=0)


class TestRoundTrip:
    SPECS = (
        "arithmetic",
        "power:2",
        "stolarsky:3:1",
        "proj:upper",
        "mt:logarithmic:0.5",
        "mt:(power:2):0.25",
        "nt:geometric:min:max:0.4",
        "nt:arithmetic:arithmetic:harmonic:0.5",
    )

    @pytest.mark.parametrize("text", SPECS)
    def test_printed_specs_reparse_to_the_same_function(self, text):
        first = im.parse_mean_spec(text)
        assert first.spec is not None
        second = im.parse_mean_spec(first.spec)
        x, y = random_pairs(100)
        rel = np.abs(second.fn(x, y) - first.fn(x, y)) / np.abs(first.fn(x, y))
        assert float(rel.max()) <= 1e-12

    @pytest.mark.parametrize("text", [
        "pair:arithmetic:arithmetic:harmonic:0.5",
        "pair:(power:2):(mt:logarithmic:0.5):max:0.3",
    ])
    def test_pair_specs_round_trip(self, text):
        first = im.parse_pair(text)
        assert first.spec is not None
        second = im.parse_pair(first.spec)
        x, y = random_pairs(100)
        for a, b in ((first.K, second.K), (first.L, second.L)):
            rel = np.abs(b.fn(x, y) - a.fn(x, y)) / np.maximum(x, y)
            assert float(rel.max()) <= 1e-12

    def test_constructed_pairs_print_parseable_specs(self):
        built = im.xy_pair(im.classical("arithmetic"), 0.5,
                           im.builtin_cone("lower"))
        reparsed = im.parse_pair(built.spec)
        x, y = random_pairs(100)
        assert np.array_equal(reparsed.K.fn(x, y), built.K.fn(x, y))
        assert np.array_equal(reparsed.L.fn(x, y), built.L.fn(x, y))


class TestParseErrors:
    def test_unknown_identifier_with_position(self):
        with pytest.raises(im.InvalidMeanSpec, match="unknown mean identifier"):
            im.parse_mean_spec("median")
        try:
            im.parse_mean_spec("nt:arithmetic:bogus:harmonic:0.5")
        except im.InvalidMeanSpec as exc:
            assert exc.position == 14
            assert "(at position 14)" in str(exc)
        else:
            pytest.fail("expected a parse error")

    def test_unknown_constructor(self):
        with pytest.raises(im.InvalidMeanSpec, match="unknown constructor"):
            im.parse_mean_spec("blend:arithmetic:0.5")

    def test_unknown_cone(self):
        with pytest.raises(im.InvalidMeanSpec, match="unknown cone name"):
            im.parse_mean_spec("proj:sideways")

    def test_arity_errors(self):
        with pytest.raises(im.InvalidMeanSpec, match="expects 2 arguments"):
            im.parse_mean_spec("mt:arithmetic")
        with pytest.raises(im.InvalidMeanSpec, match="expects 4 arguments"):
            im.parse_mean_spec("nt:arithmetic:harmonic:0.5")

    def test_number_errors(self):
        with pytest.raises(im.InvalidMeanSpec, match="expected a number"):
            im.parse_mean_spec("mt:arithmetic:half")
        with pytest.raises(im.InvalidMeanSpec, match="finite"):
            im.parse_mean_spec("power:inf")

    def test_unbalanced_parentheses(self):
        with pytest.raises(im.InvalidMeanSpec, match="unbalanced"):
            im.parse_mean_spec("mt:(power:2:0.5")
        with pytest.raises(im.InvalidMeanSpec, match="unbalanced"):
            im.parse_mean_spec("mt:power:2):0.5")

    def test_empty_expression(self):
        with pytest.raises(im.InvalidMeanSpec, match="empty"):
            im.parse_mean_spec("")
        with pytest.raises(im.InvalidMeanSpec, match="empty"):
            im.parse_mean_spec("(())")

    def test_non_string_input(self):
        with pytest.raises(im.InvalidMeanSpec, match="string"):
            im.parse_mean_spec(3.0)

    def test_pair_cannot_serve_as_a_mean(self):
        with pytest.raises(im.InvalidMeanSpec, match="pair expression"):
            im.parse_mean_spec(
                "mt:(pair:arithmetic:arithmetic:harmonic:0.5):0.5")

    def test_constructor_range_errors_surface_verbatim(self):
        # on every call, whole or as an operand: a raise is never cached
        for text in ("stolarsky:1:1", "pair:(stolarsky:1:1):min:max:0.5") * 2:
            with pytest.raises(im.ParameterError, match="requires r != s"):
                im.parse_mean_spec(text)
        with pytest.raises(im.ParameterError, match="0 < t < 1"):
            im.parse_mean_spec("nt:arithmetic:min:max:1.5")


class TestPrecedence:
    # which error wins, and where, when a spec is wrong in several ways
    CASES = (
        ("(a))", "unbalanced ')'", 3),
        ("mt:((power:2):0.5", "unbalanced '('", 3),
        ("(arithmetic)(x)", "unknown mean identifier '(arithmetic)(x)'", 0),
        ("()", "empty mean specification", 1),
        (":2", "unknown constructor ''", 0),
        ("foo:x:y", "unknown constructor 'foo'", 0),
        ("power:x:y", "'power' expects 1 argument, got 2", 0),
        ("stolarsky:1", "'stolarsky' expects 2 arguments, got 1", 0),
        ("nt:foo:bar:baz:x", "unknown mean identifier 'foo'", 3),
        ("mt:(pair:arithmetic:min:max:0.5):x", "a pair expression cannot be used as a mean", 3),
        ("proj:(lower)", "unknown cone name '(lower)'", 5),
    )

    @pytest.mark.parametrize("text, message, position", CASES)
    def test_first_error_and_its_position(self, text, message, position):
        # twice: a raise is never cached, so every call raises alike
        for _ in range(2):
            with pytest.raises(im.InvalidMeanSpec) as info:
                im.parse_mean_spec(text)
            assert str(info.value) == f"{message} (at position {position})"
            assert info.value.position == position

    def test_only_whole_groups_are_stripped(self):
        assert im.parse_mean_spec("((mt:((geometric)):0.5))").spec == "mt:geometric:0.5"


def test_docstring_grammar_is_the_head_table():
    # each headed production of the module docstring is one _HEADS row
    readers = {"num": specs._number, "mean": specs._mean, "cone": specs._cone}
    rows = {}
    for head, args in re.findall(r'\| "(\w+):" (.*)', specs.__doc__):
        rows[head] = tuple(readers[a] for a in args.split() if a != '":"')
    assert rows == {head: row for head, (row, _) in specs._HEADS.items()}


class TestStrictParsers:
    def test_parse_mean_rejects_pairs(self):
        with pytest.raises(im.InvalidMeanSpec, match="expected a single mean"):
            im.parse_mean("pair:arithmetic:arithmetic:harmonic:0.5")
        assert im.parse_mean("arithmetic") is im.classical("arithmetic")

    def test_parse_pair_rejects_single_means(self):
        with pytest.raises(im.InvalidMeanSpec, match="expected pair:"):
            im.parse_pair("arithmetic")
        pair = im.parse_pair("pair:arithmetic:min:max:0.5")
        assert isinstance(pair, im.MeanPair)


class TestParseCache:
    # each (expression, offset) is parsed once; raises are never cached

    def test_a_spec_parsed_again_is_the_same_object(self):
        s = "pair:(power:3):arithmetic:harmonic:0.25"
        assert im.parse_pair(s) is im.parse_pair(s)
        assert im.parse_mean("stolarsky:2:-1") is im.parse_mean("stolarsky:2:-1")

    def test_a_shared_operand_is_built_once(self):
        first = im.parse_pair("pair:(stolarsky:3:1):arithmetic:harmonic:0.5")
        second = im.parse_pair("pair:(stolarsky:3:1):min:max:0.75")
        assert first is not second
        assert first.target is second.target

    def test_an_operand_seen_at_another_offset_reports_its_own_position(self):
        # the operands are parsed whole first, at offset 0, then inside
        # specs where they and their bad tokens lie further right
        im.parse_mean("(stolarsky:3:1)")
        with pytest.raises(im.InvalidMeanSpec) as info:
            im.parse_mean_spec("stolarsky:3:x")
        assert info.value.position == 12
        for text, position in (
            ("pair:(stolarsky:3:x):arithmetic:harmonic:0.5", 18),
            ("pair:(stolarsky:3:1):arithmetic:harmonic:x", 41),
            ("nt:arithmetic:(stolarsky:3:x):harmonic:0.5", 27),
        ):
            with pytest.raises(im.InvalidMeanSpec) as info:
                im.parse_mean_spec(text)
            assert info.value.position == position, text
