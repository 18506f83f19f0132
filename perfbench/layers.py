"""Per-layer probes of the traced run, identical for every workload.

Each probe times calls into one module's public functions from outside,
on fixed inputs (``PROBE_SEED``), so a layer's numbers compare across runs
and commits and its counts repeat exactly.  Self times come from traced
reference segments: a fixed draw of sweep ops and of iterate starts run on
subjects built from traced means.
"""
from __future__ import annotations

import io
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

import numpy as np

import invmeans as im
import invmeans.cli
from spans import Tracer, traced_mean, traced_pair
from workloads import (
    SWEEP_CHECKS,
    capture_pair_samples,
    iterate_ok,
    iterate_once,
    iterate_pairs,
    iterate_starts,
    sweep_table,
    traced_iterate_pairs,
    traced_subject,
)

PROBE_SEED = 150102356
REPS = 15
SEGMENT_REPS = 3
SWEEP_SEGMENT_OPS = 36
ITERATE_SEGMENT_STARTS = 40
COLD_SEEDS = range(10 ** 9, 10 ** 9 + 5)  # scan seeds no workload uses

EVALUATORS = {
    "arithmetic": "arithmetic",
    "geometric": "geometric",
    "harmonic": "harmonic",
    "logarithmic": "logarithmic",
    "power_half": "power:0.5",
    "power_2": "power:2",
    "stolarsky_3_1": "stolarsky:3:1",
}

PARSE_SPECS = (
    "arithmetic", "power:2", "stolarsky:3:1", "proj:lower", "mt:logarithmic:0.5",
    "mt:(power:2):0.5", "nt:geometric:min:max:0.4",
    "nt:arithmetic:arithmetic:harmonic:0.5",
    "pair:arithmetic:arithmetic:harmonic:0.5",
    "pair:(stolarsky:3:1):(power:0.5):logarithmic:0.75",
)

MAIN_ARGV = {
    "eval": ["eval", "--mean", "mt:(power:2):0.5", "--x", "1", "--y", "4"],
    "check": ["check", "--what", "invariance", "--pair",
              "pair:arithmetic:arithmetic:harmonic:0.5"],
    "complement": ["complement", "--mean", "arithmetic", "--t", "0.5", "--cone",
                   "lower", "--json"],
    "iterate": ["iterate", "--pair", "pair:geometric:arithmetic:harmonic:0.5",
                "--x0", "1", "--y0", "4", "--json"],
    "counterexample": ["counterexample", "--n", "3", "--t", "0.5", "--x", "1e8",
                       "--json"],
}

IMPORT_SNIPPET = ("from time import perf_counter_ns as c; t = c(); "
                  "import invmeans.cli; print(c() - t)")


def median_ns(fn, *args, reps: int = REPS, batch: int = 1) -> float:
    """Median over ``reps`` of the time of ``batch`` calls, per call."""
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for _ in range(batch):
            fn(*args)
        times.append((perf_counter_ns() - t0) / batch)
    return statistics.median(times)


class Probes:
    """Runs every probe; ``attempted``/``failed`` count the outputs checked."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def run(self) -> "Probes":
        self.evaluators()
        self.scalars()
        self.scans()
        self.iteration()
        self.counts()
        self.segments()
        self.cli()
        return self

    def evaluators(self) -> None:
        x, y = capture_pair_samples(im.DEFAULT_CONFIG)
        lanes = x.size
        with np.errstate(all="ignore"):
            for key, spec in EVALUATORS.items():
                M = im.parse_mean(spec)
                self.put(f"means.{key}.ns_per_pair", median_ns(M.fn, x, y) / lanes, "ns")
            P = im.projective_mean(im.builtin_cone("mixed"))
            self.put("projective.select_mixed.ns_per_pair",
                     median_ns(P.fn, x, y) / lanes, "ns")
            pair = im.parse_pair("pair:logarithmic:arithmetic:harmonic:0.5")

            def both():
                pair.K.fn(x, y)
                pair.L.fn(x, y)

            self.put("complement.pair_eval.ns_per_pair", median_ns(both) / lanes, "ns")

    def scalars(self) -> None:
        means = [im.parse_mean(s) for s in EVALUATORS.values()]

        def calls():
            for M in means:
                M(1.0, 4.0)

        self.put("means.scalar_call_us",
                 median_ns(calls, batch=10) / len(means) / 1e3, "us")
        pair = im.parse_pair("pair:logarithmic:arithmetic:harmonic:0.5")

        def step():
            pair.K(1.0, 4.0)
            pair.L(1.0, 4.0)

        self.put("complement.scalar_step_us", median_ns(step, batch=10) / 1e3, "us")
        self.put("multivar.counterexample_ratio_us",
                 median_ns(im.counterexample_ratio, 3, 0.5, 1e8, batch=10) / 1e3, "us")

        def parse_all():
            for spec in PARSE_SPECS:
                im.parse_mean_spec(spec)

        self.put("specs.parse_us", median_ns(parse_all) / len(PARSE_SPECS) / 1e3, "us")

    def scans(self) -> None:
        A = im.classical("arithmetic")
        cold = []
        for seed in COLD_SEEDS:
            cfg = im.ScanConfig(seed=seed)
            t0 = perf_counter_ns()
            im.check_meanness(A, cfg)
            t1 = perf_counter_ns()
            self.expect(im.check_meanness(A, cfg).passed)
            cold.append((t1 - t0) - (perf_counter_ns() - t1))
        self.put("verify.sample_ms", statistics.median(cold) / 1e6, "ms")
        self.put("verify.check_meanness_arith_ms",
                 median_ns(im.check_meanness, A) / 1e6, "ms")
        self.put("verify.check_flags_arith_ms", median_ns(im.check_flags, A) / 1e6, "ms")

    def iteration(self) -> None:
        pairs = iterate_pairs()
        starts = iterate_starts(PROBE_SEED, ITERATE_SEGMENT_STARTS)
        per_step = []
        for _ in range(SEGMENT_REPS):
            steps = 0
            t0 = perf_counter_ns()
            for p, x0, y0 in starts:
                steps += im.iterate_pair(pairs[p], x0, y0).iterations
            per_step.append((perf_counter_ns() - t0) / steps)
        self.put("iterate.us_per_step", statistics.median(per_step) / 1e3, "us")
        self.put("iterate.steps_per_start", steps / len(starts), "count")

    def counts(self) -> None:
        """Evaluator calls behind one check_invariance of a general pair."""
        tracer = Tracer()
        M = traced_mean(tracer, im.classical("logarithmic"), name="target")
        C = traced_mean(tracer, im.classical("arithmetic"), name="component")
        D = traced_mean(tracer, im.classical("harmonic"), name="component")
        pair = traced_pair(tracer, im.general_pair(M, C, D, 0.5))
        self.expect(im.check_invariance(pair).passed)
        self.put("complement.target_evals_per_check", tracer.calls["target"], "count")
        self.put("complement.component_evals_per_check", tracer.calls["component"],
                 "count")

    def segments(self) -> None:
        rng = random.Random(PROBE_SEED)
        rows = [r for r in sweep_table() if r[0][0] == "pair"]
        rows = rng.sample(rows, SWEEP_SEGMENT_OPS)
        starts = iterate_starts(PROBE_SEED, ITERATE_SEGMENT_STARTS)
        plain = iterate_pairs()
        sweep_self = {"means": [], "complement": [], "verify": []}
        iterate_self = []
        for _ in range(SEGMENT_REPS):
            tracer = Tracer()
            subjects = [traced_subject(key, tracer) for key, _, _ in rows]
            for (key, kind, expect), subject in zip(rows, subjects):
                rep = tracer.call("verify", kind, SWEEP_CHECKS[kind], subject)
                self.expect(rep.passed is expect)
            per_layer = tracer.self_ns()
            for layer, values in sweep_self.items():
                values.append(per_layer[layer] / len(rows))
            tracer = Tracer()
            pairs = traced_iterate_pairs(tracer)
            for p, x0, y0 in starts:
                trace, rep = tracer.call("iterate", "iterate_pair", iterate_once,
                                         pairs[p], x0, y0)
                self.expect(iterate_ok(plain[p], x0, y0, trace, rep))
            iterate_self.append(tracer.self_ns()["iterate"] / len(starts))
        for layer, values in sweep_self.items():
            self.put(f"{layer}.self_ms_per_op", statistics.median(values) / 1e6, "ms")
        self.put("iterate.self_us_per_start", statistics.median(iterate_self) / 1e3, "us")

    def cli(self) -> None:
        startup, imports = [], []
        for _ in range(5):
            t0 = perf_counter_ns()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            startup.append(perf_counter_ns() - t0)
            out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True,
                                 capture_output=True, text=True).stdout
            imports.append(int(out))
        self.put("cli.python_startup_ms", statistics.median(startup) / 1e6, "ms")
        self.put("cli.import_ms", statistics.median(imports) / 1e6, "ms")
        for name, argv in MAIN_ARGV.items():
            times = []
            for _ in range(5):
                sink = io.StringIO()
                with redirect_stdout(sink), redirect_stderr(sink):
                    t0 = perf_counter_ns()
                    code = invmeans.cli.main(argv)
                    times.append(perf_counter_ns() - t0)
                self.expect(code == 0)
            self.put(f"cli.main_ms.{name}", statistics.median(times) / 1e6, "ms")
