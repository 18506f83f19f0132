"""Command-line interface: exit codes, output layout, and replayability."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invmeans as im
from invmeans.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_value_on_stdout(self, capsys):
        code, out, err = run(capsys, [
            "eval", "--mean", "arithmetic", "--x", "1", "--y", "3"])
        assert code == 0
        assert out == "2\n"
        assert err == ""

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, [
            "eval", "--mean", "arithmetic", "--x", "1", "--y", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"mean": "arithmetic", "x": 1.0, "y": 3.0,
                           "value": 2.0}

    def test_nested_expression_evaluates(self, capsys):
        code, out, _ = run(capsys, [
            "eval", "--mean", "mt:(power:2):0.5", "--x", "1", "--y", "4"])
        assert code == 0
        assert_allclose(float(out), 3.4, rtol=1e-14)

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "eval", "--mean", "stolarsky:1:1", "--x", "1", "--y", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: stolarsky mean requires r != s")

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "eval", "--mean", "arithmetic", "--x", "-1", "--y", "3"])
        assert code == 2
        assert "must be positive reals" in err

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run(capsys, ["eval", "--mean", "arithmetic", "--x", "1"])
        assert code == 2
        assert "--y" in err


class TestCheck:
    def test_passing_invariance(self, capsys):
        code, out, _ = run(capsys, [
            "check", "--what", "invariance",
            "--pair", "pair:geometric:arithmetic:harmonic:0.5",
            "--grid", "1e-3:1e3:16"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(
            "# check=invariance "
            "subject=pair:geometric:arithmetic:harmonic:0.5 seed=0")
        assert lines[1].startswith("pass worst_violation=")
        assert "samples=" in lines[1]

    def test_failing_meanness_exits_1(self, capsys):
        code, out, _ = run(capsys, [
            "check", "--what", "mean",
            "--mean", "nt:arithmetic:arithmetic:harmonic:0.5",
            "--grid", "1e-6:1e6:16"])
        assert code == 1
        assert out.splitlines()[1].startswith("FAIL worst_violation=")
        assert "witness=" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, [
            "check", "--what", "mean", "--mean", "geometric",
            "--grid", "1e-3:1e3:16", "--seed", "7", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "mean"
        assert payload["subject"] == "geometric"
        assert payload["passed"] is True
        assert payload["seed"] == 7
        assert payload["grid"] == "1e-3:1e3:16"
        assert set(payload) >= {"worst_violation", "witness", "samples", "tol"}

    def test_seed_echoed_in_text_header(self, capsys):
        _, out, _ = run(capsys, [
            "check", "--what", "flags", "--mean", "arithmetic",
            "--grid", "1e-3:1e3:16", "--seed", "7"])
        assert "seed=7" in out.splitlines()[0]

    @pytest.mark.parametrize("what,mean", [
        ("trace", "geometric"),
        ("monotone", "logarithmic"),
        ("flags", "max"),
    ])
    def test_other_checks_pass_on_catalog(self, capsys, what, mean):
        code, out, _ = run(capsys, [
            "check", "--what", what, "--mean", mean,
            "--grid", "1e-3:1e3:16"])
        assert code == 0
        assert out.splitlines()[1].startswith("pass ")

    def test_invariance_requires_pair(self, capsys):
        code, _, err = run(capsys, ["check", "--what", "invariance"])
        assert code == 2
        assert "requires --pair" in err

    def test_mean_checks_require_mean(self, capsys):
        code, _, err = run(capsys, ["check", "--what", "mean"])
        assert code == 2
        assert "requires --mean" in err

    @pytest.mark.parametrize("what, arg", [
        ("mean", "mean"), ("trace", "mean"), ("monotone", "mean"),
        ("invariance", "pair"), ("flags", "mean")])
    def test_each_check_names_its_missing_subject(self, capsys, what, arg):
        code, out, err = run(capsys, ["check", "--what", what])
        assert (code, out, err) == (2, "", f"error: --what {what} requires --{arg}\n")

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "check", "--what", "mean", "--mean", "arithmetic",
            "--grid", "1:10"])
        assert code == 2
        assert "--grid must look like lo:hi:n" in err

    def test_a_grid_entry_that_is_not_a_number_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "check", "--what", "mean", "--mean", "arithmetic",
            "--grid", "1e-6:x:64"])
        assert (code, out) == (2, "")
        assert err == "error: --grid must look like lo:hi:n, got '1e-6:x:64'\n"

    def test_too_few_grid_points_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "check", "--what", "mean", "--mean", "arithmetic",
            "--grid", "1:10:4"])
        assert code == 2
        assert "points_per_axis" in err

    # 1e11 points per axis pass numpy's largest dimension (ValueError);
    # 3e6 ask for a 720 TiB pair sample set, past any address space, so
    # no allocation grants it (MemoryError)
    @pytest.mark.parametrize("what, n", [
        ("mean", "100000000000"), ("mean", "3000000"), ("flags", "3000000"),
        ("trace", "100000000000"),
    ])
    def test_a_grid_too_large_to_allocate_exits_2(self, capsys, what, n):
        code, out, err = run(capsys, [
            "check", "--what", what, "--mean", "arithmetic",
            "--grid", f"1e-6:1e6:{n}"])
        assert (code, out) == (2, "")
        assert err == (f"error: points_per_axis={n}: the scan's samples are too "
                       "large to allocate\n")


class TestComplement:
    def test_table_layout(self, capsys):
        code, out, err = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "0.5",
            "--c", "arithmetic", "--d", "harmonic"])
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# complement pair=")
        assert lines[2].startswith("# columns: x y K L")
        assert len(lines) == 3 + 25

    def test_csv_layout(self, capsys):
        code, out, err = run(capsys, [
            "complement", "--mean", "geometric", "--t", "0.3",
            "--cone", "lower", "--emit", "csv", "--grid", "1e-2:1e2:8"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,K,L,M_of_KL,M_of_xy,residual"
        assert len(lines) == 1 + 64
        assert err.splitlines()[0].startswith("# complement pair=")
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 7

    def test_a_csv_grid_too_large_to_allocate_exits_2(self, capsys):
        # 1e14 points per axis ask for 800 TB, past any address space
        code, out, err = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "0.5", "--emit", "csv",
            "--grid", "1e-6:1e6:100000000000000"])
        assert (code, out) == (2, "")
        assert err == ("error: points_per_axis=100000000000000: the scan's samples "
                       "are too large to allocate\n")

    def test_residuals_are_small(self, capsys):
        _, out, _ = run(capsys, [
            "complement", "--mean", "logarithmic", "--t", "0.5",
            "--c", "min", "--d", "max", "--emit", "csv",
            "--grid", "1e-3:1e3:8"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        residuals = np.array([float(r[-1]) for r in rows])
        assert residuals.max() <= 1e-11

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "0.5",
            "--cone", "full", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pair_spec"] == (
            "pair:arithmetic:(proj:full):(proj:empty):0.5")
        assert payload["target"] == "arithmetic"
        assert payload["t"] == 0.5
        assert payload["columns"] == [
            "x", "y", "K", "L", "M_of_KL", "M_of_xy", "residual"]
        assert len(payload["rows"]) == 25
        assert list(payload) == ["pair_spec", "description", "K", "L", "target",
                                 "t", "seed", "grid", "columns", "rows"]

    def test_c_requires_d(self, capsys):
        code, _, err = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "0.5",
            "--c", "min"])
        assert code == 2
        assert "--c and --d must be given together" in err

    def test_cd_and_cone_are_exclusive(self, capsys):
        code, _, err = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "0.5",
            "--c", "min", "--d", "max", "--cone", "lower"])
        assert code == 2
        assert "mutually exclusive" in err

    def test_t_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "1.5",
            "--c", "min", "--d", "max"])
        assert code == 2
        assert "0 < t < 1" in err


class TestIterate:
    ARGS = ["iterate", "--pair", "pair:geometric:arithmetic:harmonic:0.5",
            "--x0", "1", "--y0", "4"]

    def test_table_layout(self, capsys):
        code, out, err = run(capsys, self.ARGS)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# iterate pair=")
        assert lines[1] == "# columns: n x y gap M_of_xy"
        assert lines[-1].startswith("# converged=true iterations=")
        first = lines[2].split()
        assert first[0] == "0"
        assert float(first[1]) == 1.0 and float(first[2]) == 4.0

    def test_csv_layout(self, capsys):
        code, out, err = run(capsys, self.ARGS + ["--emit", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,x,y,gap,M_of_xy"
        errlines = err.splitlines()
        assert errlines[0].startswith("# iterate pair=")
        assert errlines[-1].startswith("converged=true iterations=")
        assert len(lines) - 1 == int(errlines[-1].split("iterations=")[1]
                                     .split()[0]) + 1

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert_allclose(payload["limit"], 2.0, rtol=1e-14)
        assert payload["rows"][0][:3] == [0, 1.0, 4.0]
        assert len(payload["rows"]) == payload["iterations"] + 1
        assert list(payload) == ["pair", "converged", "iterations", "limit",
                                 "final_gap", "gap_monotone", "columns", "rows"]

    def test_bad_start_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "iterate", "--pair", "pair:geometric:arithmetic:harmonic:0.5",
            "--x0", "-1", "--y0", "4"])
        assert code == 2
        assert "positive starting pair" in err

    @pytest.mark.parametrize("x0", ["inf", "nan"])
    def test_nonfinite_start_exits_2(self, capsys, x0):
        code, out, err = run(capsys, [
            "iterate", "--pair", "pair:geometric:arithmetic:harmonic:0.5",
            "--x0", x0, "--y0", "4"])
        assert code == 2
        assert out == ""
        assert "positive starting pair" in err


class TestCounterexample:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, [
            "counterexample", "--n", "3", "--t", "0.5", "--x", "1e8"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ratio=1.7958234303252134"
        assert lines[1] == "limit=2"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, [
            "counterexample", "--n", "5", "--t", "0.5", "--x", "1e10",
            "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["limit"] == 4.0
        assert_allclose(payload["ratio"], 2.763932022579983, rtol=1e-13)

    def test_parameter_error_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "counterexample", "--n", "2", "--t", "0.5", "--x", "1e8"])
        assert code == 2
        assert "needs n >= 3" in err

    def test_an_n_past_the_bound_exits_2(self, capsys):
        # 10**23 does not fit an index; the bound is checked first
        code, out, err = run(capsys, [
            "counterexample", "--n", "100000000000000000000000", "--t", "0.5",
            "--x", "2"])
        assert (code, out, err) == (2, "", "error: the escape ratio takes n <= 100000\n")

    @pytest.mark.parametrize("x", ["inf", "nan"])
    def test_nonfinite_x_exits_2(self, capsys, x):
        code, out, err = run(capsys, [
            "counterexample", "--n", "3", "--t", "0.5", "--x", x])
        assert code == 2
        assert out == ""
        assert "requires x > 0" in err


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run(capsys, [])[0] == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--mean", "arithmetic", "--x", "1", "--y", "3", "--seed", "1"],
        ["iterate", "--pair", "pair:geometric:arithmetic:harmonic:0.5",
         "--x0", "1", "--y0", "4", "--tol", "7"],
        ["counterexample", "--n", "3", "--t", "0.5", "--x", "1e8",
         "--grid", "1:10:8"],
    ])
    def test_scan_flags_only_on_scan_commands(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "invmeans" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["check", "--what", "mean", "--mean", "geometric",
         "--grid", "1e-3:1e3:16", "--json"],
        ["complement", "--mean", "arithmetic", "--t", "0.5",
         "--cone", "mixed", "--emit", "csv", "--grid", "1e-2:1e2:8"],
        ["iterate", "--pair", "pair:arithmetic:geometric:logarithmic:0.4",
         "--x0", "0.3", "--y0", "7", "--emit", "csv"],
    ])
    def test_repeated_runs_are_identical(self, capsys, argv):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


class TestPrintedSpecsReparse:
    """Every spec the CLI prints re-parses to the same pair."""

    def random_pairs(self, n=100, seed=42):
        rng = np.random.default_rng(seed)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        return x, y

    def assert_same_pair(self, spec, built):
        reparsed = im.parse_pair(spec)
        x, y = self.random_pairs()
        for a, b in ((built.K, reparsed.K), (built.L, reparsed.L)):
            rel = np.abs(b.fn(x, y) - a.fn(x, y)) / np.maximum(x, y)
            assert float(rel.max()) <= 1e-12

    def test_general_pair_spec(self, capsys):
        _, out, _ = run(capsys, [
            "complement", "--mean", "geometric", "--t", "0.25",
            "--c", "arithmetic", "--d", "logarithmic", "--json"])
        spec = json.loads(out)["pair_spec"]
        built = im.general_pair(im.classical("geometric"),
                                im.classical("arithmetic"),
                                im.classical("logarithmic"), 0.25)
        assert spec == built.spec
        self.assert_same_pair(spec, built)

    def test_projective_pair_spec(self, capsys):
        _, out, _ = run(capsys, [
            "complement", "--mean", "arithmetic", "--t", "0.5",
            "--cone", "lower", "--json"])
        spec = json.loads(out)["pair_spec"]
        built = im.xy_pair(im.classical("arithmetic"), 0.5,
                           im.builtin_cone("lower"))
        assert spec == "pair:arithmetic:(proj:lower):(proj:upper):0.5"
        self.assert_same_pair(spec, built)
