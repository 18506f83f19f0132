"""The package's public names and the one module that runs scans."""

import ast
from pathlib import Path

import invmeans as im
from invmeans import (complement, errors, iterate, means, multivar, projective, specs,
                      verify)


def test_public_names_are_pinned():
    assert sorted(im.__all__) == [
        "ARITHMETIC_ON_REALS", "BUILTIN_CONE_NAMES", "CLASSICAL_NAMES", "ConeSet",
        "DEFAULT_CONFIG", "DomainError", "InvalidMeanSpec", "IterationTrace", "Mean",
        "MeanPair", "MeansError", "NEAR_DIAGONAL_RTOL", "NaryMean", "ParameterError",
        "RealMean", "RealMeanPair", "ScanConfig", "ScanReport", "TRANSLATIVE_ARG_LIMIT",
        "TraceFn", "__version__", "builtin_cone", "check_exchange_property",
        "check_flags", "check_invariance", "check_meanness", "check_monotone_trace",
        "check_nary_meanness", "check_trace_meanness", "classical", "complement_cone",
        "counterexample_ratio", "general_base", "general_pair",
        "invariant_value_along_trajectory", "iterate_pair", "log_pair",
        "nary_arithmetic", "nary_general_base", "nary_geometric",
        "nary_invariant_tuple", "parse_mean", "parse_mean_spec", "parse_pair",
        "power_mean", "projective_mean", "self_complement_base", "stolarsky",
        "trace_of", "translative_conjugate", "translative_pair", "xy_pair",
    ]


def test_every_public_name_resolves():
    for name in im.__all__:
        assert hasattr(im, name), name


def test_the_package_lists_each_module_s_names_once():
    modules = (complement, errors, iterate, means, multivar, projective, specs, verify)
    listed = [name for m in modules for name in m.__all__]
    assert len(set(listed)) == len(listed)
    assert sorted(im.__all__) == sorted(listed + ["__version__"])


def test_a_real_line_pair_is_a_mean_pair():
    assert im.RealMeanPair is im.MeanPair


# the private scan engine: the samplers, the block iterator and the reducer
ENGINE = {"_scan", "_blocks", "_pair_samples", "_log_uniform", "_trace_samples"}


def _names(path):
    """Every identifier a module binds, reads, imports or takes as an attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_only_verify_knows_the_scan_engine():
    package = Path(im.__file__).parent
    users = {path.name: ENGINE & set(_names(path)) for path in package.glob("*.py")}
    assert {name for name, used in users.items() if used} == {"verify.py"}
    assert users["verify.py"] == ENGINE
    for name in ("projective.py", "multivar.py", "iterate.py"):
        assert "verify" not in set(_names(package / name)), name
