"""The four benchmark workloads and the expected result of every op.

Each workload is a closed loop with one caller.  ``setup()`` builds the
untraced subjects from the seed; ``op(i)`` runs the i-th op and returns an
``Outcome`` whose ``ok`` says whether the op's output was correct,
including the lane-count guard: a scan must check exactly as many samples
as its ``ScanConfig`` implies, so no change can gain speed by shrinking a
scan.  ``op(i, tracer)`` runs the same op on subjects built from traced
means (see ``spans``).

sweep    criterion-02 grid plus the special constructors, one check per op
         on the cached default scan set: evaluators and pair kernels.
iterate  iterate_pair + invariant_value_along_trajectory from seeded
         starts: per-call scalar overhead and the near-diagonal branch.
cli      cold-start ``python -m invmeans.cli`` processes cycling the
         subcommands: interpreter start-up, imports, spec parsing.
bigscan  scans at points_per_axis=192 with a fresh seed per op: sample
         generation, memory traffic and the scan-set cache footprint.
"""
from __future__ import annotations

import json
import math
import random
import struct
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import invmeans as im
from spans import Tracer, traced_cone, traced_mean, traced_pair

FAULT_EVERY = 10  # with inject_fault, every tenth op runs a deliberately wrong case
START_POOL = 4000  # a whole number of ten-round blocks
BIGSCAN_N = 192  # 11*N**2 + 24 = 405,528 lanes per scan set, 6.5 MB of x and y
LIMIT_RTOL = 1e-13

TARGET_SPECS = ("arithmetic", "geometric", "logarithmic", "power:0.5", "power:2",
                "stolarsky:3:1")
TS = (0.1, 0.25, 0.5, 0.75, 0.9)
G_KERNEL_TS = (0.1, 0.25, 0.4)  # geometric kernels are means for t <= 0.4
FAILING_KERNEL_TS = (0.25, 0.5, 0.75, 0.9)  # general_base(A, A, H, t) escapes


@dataclass
class Outcome:
    ns: int
    ok: bool
    lanes: int | None  # samples_checked of the op's scan, None when it runs none
    bits: bytes  # report content folded into the run digest


def _failed(ns: int, exc: BaseException) -> Outcome:
    return Outcome(ns, False, None, repr(exc).encode())


def scan_lanes(cfg: im.ScanConfig) -> int:
    """Lanes of the pair sample set: grid, ratio probes, 10x random supplement."""
    lo, hi = cfg.domain
    n = cfg.points_per_axis
    probes = 0
    for k in range(1, 13):
        if 10.0 ** k > hi / lo:
            break
        probes += 2
    return 11 * n * n + probes


def capture_pair_samples(cfg: im.ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) lanes a pair scan with ``cfg`` walks, read through a recording mean."""
    seen = []

    def record(x, y):
        seen.append((x, y))
        return x

    im.check_meanness(im.Mean(record, "capture"), cfg)
    return seen[0]


def flags_lanes(cfg: im.ScanConfig) -> int:
    """Lanes check_flags covers for a mean declaring all four flags.

    Symmetric, homogeneous and monotone scans walk every lane; the strict
    scan keeps only well-separated arguments, |log(x/y)| >= 0.1.
    """
    x, y = capture_pair_samples(cfg)
    with np.errstate(all="ignore"):
        kept = int(np.count_nonzero(np.abs(np.log(x / y)) >= 0.1))
    return 3 * x.size + kept


def report_bits(rep) -> bytes:
    return struct.pack(f"<?dq{len(rep.witness)}d", rep.passed, rep.worst_violation,
                       rep.samples_checked, *rep.witness)


def scan_outcome(ns: int, rep, expect: bool, lanes: int) -> Outcome:
    ok = rep.passed is expect and rep.samples_checked == lanes
    return Outcome(ns, ok, rep.samples_checked, report_bits(rep))


def timed(tracer: Tracer | None, layer: str, name: str, fn, *args):
    """Run ``fn`` once; returns (ns, result); traced runs wrap it in a span."""
    t0 = perf_counter_ns()
    if tracer is None:
        out = fn(*args)
    else:
        out = tracer.call(layer, name, fn, *args)
    return perf_counter_ns() - t0, out


def wrong_mean() -> im.Mean:
    """A deliberately broken subject: it leaves the min/max envelope everywhere."""
    return im.Mean(lambda x, y: np.maximum(x, y) + 1.0, "max+1")


def _paren(spec: str) -> str:
    return f"({spec})" if ":" in spec else spec


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------- sweep

def sweep_table() -> list[tuple[tuple, str, bool]]:
    """Every sweep op as (subject key, check, expected verdict), in a fixed order."""
    rows = []
    names = im.CLASSICAL_NAMES
    for m in TARGET_SPECS:
        for c in names:
            for d in names:
                for t in TS:
                    key = ("pair", m, c, d, t)
                    rows += [(key, "K", True), (key, "L", True), (key, "inv", True)]
    for m in TARGET_SPECS:
        for cone in im.BUILTIN_CONE_NAMES:
            for t in TS:
                key = ("xy", m, cone, t)
                rows += [(key, "K", True), (key, "L", True), (key, "inv", True)]
    for cone in im.BUILTIN_CONE_NAMES:
        for t in TS:
            key = ("log", "logarithmic", cone, t)
            rows += [(key, "K", True), (key, "L", True), (key, "inv", True)]
    for c in names:
        for d in names:
            for t in G_KERNEL_TS:
                rows.append((("nt", "geometric", c, d, t), "mean", True))
    rows.append((("nt", "logarithmic", "arithmetic", "harmonic", 0.5), "mean", True))
    for t in FAILING_KERNEL_TS:
        rows.append((("nt", "arithmetic", "arithmetic", "harmonic", t), "mean", False))
    return rows


def plain_subject(key):
    """Untraced subject; grid pairs and kernels go through the spec grammar."""
    kind, m = key[0], key[1]
    if kind == "pair":
        _, _, c, d, t = key
        return im.parse_pair(f"pair:{_paren(m)}:{c}:{d}:{t!r}")
    if kind == "nt":
        _, _, c, d, t = key
        return im.parse_mean(f"nt:{_paren(m)}:{c}:{d}:{t!r}")
    _, _, cone, t = key
    if kind == "xy":
        return im.xy_pair(im.parse_mean(m), t, im.builtin_cone(cone))
    return im.log_pair(t, im.builtin_cone(cone))


def traced_subject(key, tracer: Tracer):
    """The same subject assembled from traced catalog means and selection sets."""
    def mean(spec):
        return traced_mean(tracer, im.parse_mean(spec))

    kind, m = key[0], key[1]
    if kind == "pair":
        _, _, c, d, t = key
        return traced_pair(tracer, im.general_pair(mean(m), mean(c), mean(d), t))
    if kind == "nt":
        _, _, c, d, t = key
        kernel = im.general_base(mean(m), mean(c), mean(d), t)
        return traced_mean(tracer, kernel, "complement", "N")
    _, _, cone, t = key
    cone = traced_cone(tracer, im.builtin_cone(cone))
    if kind == "xy":
        return traced_pair(tracer, im.xy_pair(mean(m), t, cone))
    return traced_pair(tracer, im.log_pair(t, cone), target=mean("logarithmic"))


SWEEP_CHECKS = {
    "K": lambda s: im.check_meanness(s.K),
    "L": lambda s: im.check_meanness(s.L),
    "inv": im.check_invariance,
    "mean": im.check_meanness,
}


class Sweep:
    name = "sweep"
    cycle = 1  # ops are a seeded permutation, no cycle

    def __init__(self, seed: int, inject_fault: bool = False):
        self.seed = seed
        self.inject_fault = inject_fault

    def setup(self) -> None:
        self.table = sweep_table()
        self.order = list(range(len(self.table)))
        random.Random(self.seed).shuffle(self.order)
        self.subjects = {key: plain_subject(key) for key, _, _ in self.table}
        self.traced: dict = {}
        self.lanes = scan_lanes(im.DEFAULT_CONFIG)
        self.bad = wrong_mean()
        im.check_meanness(self.subjects[self.table[0][0]].K)  # fill the sample cache

    def op(self, i: int, tracer: Tracer | None = None) -> Outcome:
        key, kind, expect = self.table[self.order[i % len(self.order)]]
        if self.inject_fault and i % FAULT_EVERY == 0:
            subject, kind, expect = self.bad, "mean", True
        elif tracer is None:
            subject = self.subjects[key]
        else:
            if key not in self.traced:
                self.traced[key] = traced_subject(key, tracer)
            subject = self.traced[key]
        t0 = perf_counter_ns()
        try:
            ns, rep = timed(tracer, "verify", kind, SWEEP_CHECKS[kind], subject)
        except Exception as exc:
            return _failed(perf_counter_ns() - t0, exc)
        return scan_outcome(ns, rep, expect, self.lanes)


# -------------------------------------------------------------- iterate

def iterate_pairs(mean=im.parse_mean, cone=im.builtin_cone, wrap=lambda p: p):
    A, G, H, L, S = (mean(s) for s in
                     ("arithmetic", "geometric", "harmonic", "logarithmic",
                      "stolarsky:3:1"))
    return [
        im.MeanPair(A, H, target=G),
        wrap(im.general_pair(L, A, H, 0.5)),
        wrap(im.general_pair(A, G, H, 0.25)),
        wrap(im.general_pair(S, A, L, 0.75)),
        wrap(im.xy_pair(A, 0.5, cone("lower"))),  # converges linearly, ~49 steps
    ]


def traced_iterate_pairs(tracer: Tracer):
    return iterate_pairs(
        mean=lambda s: traced_mean(tracer, im.parse_mean(s)),
        cone=lambda n: traced_cone(tracer, im.builtin_cone(n)),
        wrap=lambda p: traced_pair(tracer, p),
    )


def iterate_starts(seed: int, count: int) -> list[tuple[int, float, float]]:
    """(pair index, x0, y0): log-uniform on [1e-6, 1e6]^2, 1 in 10 near-diagonal.

    Pairs take turns and every tenth round of the five is near-diagonal,
    so each run has the same mix whatever the seed; the seed draws the
    points.  A near-diagonal start has relative gap log-uniform in
    [1e-12, 1e-8], inside NEAR_DIAGONAL_RTOL, so the evaluators take their
    series branch.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        x0 = _log_uniform(rng, 1e-6, 1e6)
        if (i // 5) % 10 == 0:
            y0 = x0 * (1.0 + _log_uniform(rng, 1e-12, 1e-8))
        else:
            y0 = _log_uniform(rng, 1e-6, 1e6)
        out.append((i % 5, x0, y0))
    return out


def iterate_once(pair, x0: float, y0: float):
    trace = im.iterate_pair(pair, x0, y0)
    return trace, im.invariant_value_along_trajectory(pair, trace)


def iterate_ok(pair, x0: float, y0: float, trace, rep) -> bool:
    """Converged, M constant along the trajectory, limit = M(x0, y0) to 1e-13."""
    ref = pair.target(x0, y0)
    return (trace.converged and rep.passed
            and rep.samples_checked == trace.iterations + 1
            and abs(trace.limit - ref) <= LIMIT_RTOL * ref)


class Iterate:
    name = "iterate"
    cycle = 50  # five pairs in turn, one near-diagonal round in ten

    def __init__(self, seed: int, inject_fault: bool = False):
        self.seed = seed
        self.inject_fault = inject_fault

    def setup(self) -> None:
        self.pairs = iterate_pairs()
        self.starts = iterate_starts(self.seed, START_POOL)
        self.traced = None
        G = im.classical("geometric")
        self.bad = im.MeanPair(wrong_mean(), wrong_mean(), target=G)

    def op(self, i: int, tracer: Tracer | None = None) -> Outcome:
        p, x0, y0 = self.starts[i % len(self.starts)]
        if self.inject_fault and i % FAULT_EVERY == 0:
            pair = check_pair = self.bad
        else:
            check_pair = self.pairs[p]
            if tracer is None:
                pair = check_pair
            else:
                if self.traced is None:
                    self.traced = traced_iterate_pairs(tracer)
                pair = self.traced[p]
        t0 = perf_counter_ns()
        try:
            ns, (trace, rep) = timed(tracer, "iterate", "iterate_pair",
                                     iterate_once, pair, x0, y0)
            ok = iterate_ok(check_pair, x0, y0, trace, rep)
        except Exception as exc:
            return _failed(perf_counter_ns() - t0, exc)
        bits = struct.pack("<?qd", trace.converged, trace.iterations, trace.limit)
        return Outcome(ns, ok, None, bits + report_bits(rep))


# -------------------------------------------------------------- bigscan

class Bigscan:
    name = "bigscan"
    cycle = 3

    def __init__(self, seed: int, inject_fault: bool = False):
        self.seed = seed
        self.inject_fault = inject_fault

    def setup(self) -> None:
        A, H, L = (im.classical(n) for n in ("arithmetic", "harmonic", "logarithmic"))
        self.subjects = [
            (im.check_invariance, im.general_pair(L, A, H, 0.5), True),
            (im.check_flags, im.stolarsky(3, 1), True),
            (im.check_meanness, im.general_base(A, A, H, 0.5), False),
        ]
        self.traced = None
        self.bad = (im.check_meanness, wrong_mean(), True)
        self.lanes = scan_lanes(im.ScanConfig(points_per_axis=BIGSCAN_N))
        # every op scans a sample set no earlier op of the run has used
        self.seed_base = (self.seed % (1 << 20)) << 21

    def _traced_subjects(self, tracer: Tracer):
        def mean(spec):
            return traced_mean(tracer, im.parse_mean(spec))

        A, H, L = mean("arithmetic"), mean("harmonic"), mean("logarithmic")
        kernel = im.general_base(A, A, H, 0.5)
        return [
            (im.check_invariance, traced_pair(tracer, im.general_pair(L, A, H, 0.5)), True),
            (im.check_flags, mean("stolarsky:3:1"), True),
            (im.check_meanness, traced_mean(tracer, kernel, "complement", "N"), False),
        ]

    def op(self, i: int, tracer: Tracer | None = None) -> Outcome:
        cfg = im.ScanConfig(points_per_axis=BIGSCAN_N,
                            seed=self.seed_base + 2 * i + (tracer is not None))
        if self.inject_fault and i % FAULT_EVERY == 0:
            check, subject, expect = self.bad
        elif tracer is None:
            check, subject, expect = self.subjects[i % 3]
        else:
            if self.traced is None:
                self.traced = self._traced_subjects(tracer)
            check, subject, expect = self.traced[i % 3]
        t0 = perf_counter_ns()
        try:
            ns, rep = timed(tracer, "verify", check.__name__, check, subject, cfg)
            lanes = flags_lanes(cfg) if check is im.check_flags else self.lanes
        except Exception as exc:
            return _failed(perf_counter_ns() - t0, exc)
        return scan_outcome(ns, rep, expect, lanes)


# ------------------------------------------------------------------ cli

def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _scan_check(expect_pass: bool, lanes: int):
    def validate(out: str):
        d = json.loads(out)
        return d["passed"] is expect_pass and d["samples"] == lanes, d["samples"]
    return validate


def _rows_ok(rows, count: int) -> bool:
    return len(rows) == count and all(len(r) == 7 and float(r[6]) <= LIMIT_RTOL
                                      for r in rows)


def _complement_json(out: str):
    d = json.loads(out)
    cols = d["columns"] == ["x", "y", "K", "L", "M_of_KL", "M_of_xy", "residual"]
    return cols and _rows_ok(d["rows"], 25), None


def _complement_csv(out: str):
    lines = out.splitlines()
    head = lines[0] == "x,y,K,L,M_of_KL,M_of_xy,residual"
    return head and _rows_ok([ln.split(",") for ln in lines[1:]], 64 * 64), None


def _complement_table(out: str):
    rows = [ln.split() for ln in out.splitlines() if not ln.startswith("#")]
    return _rows_ok(rows, 25), None


def cli_cases(seed: int, scan_seed: int, lanes: dict) -> list[tuple[list, int, object]]:
    """(argv, expected exit code, stdout validator) for one cycle of the CLI.

    Expected values come from closed forms evaluated here, not from the
    package: mt:(power:2):0.5 is (x^2 + y^2)/(x + y), the geometric pair
    iterates to sqrt(x0*y0), and the escape ratio is written out for n = 3.
    """
    rng = random.Random(seed)
    x, y = _log_uniform(rng, 1e-3, 1e3), _log_uniform(rng, 1e-3, 1e3)
    x0, y0 = _log_uniform(rng, 1e-3, 1e3), _log_uniform(rng, 1e-3, 1e3)
    xe = _log_uniform(rng, 1e2, 1e8)
    a, g, t = (1.0 + 2.0 * xe) / 3.0, xe ** (2.0 / 3.0), 0.5
    ratio = a ** t * a / ((a ** t + 2.0 * g ** t) / 3.0) / max(1.0, xe)
    seed_args = ["--seed", str(scan_seed), "--json"]

    def value_is(field, want, tol):
        return lambda out: (_rel(json.loads(out)[field], want) <= tol, None)

    def iterate_check(out):
        d = json.loads(out)
        return d["converged"] is True and _rel(d["limit"], math.sqrt(x0 * y0)) <= LIMIT_RTOL, None

    return [
        (["eval", "--mean", "mt:(power:2):0.5", "--x", repr(x), "--y", repr(y), "--json"],
         0, value_is("value", (x * x + y * y) / (x + y), LIMIT_RTOL)),
        (["check", "--what", "mean", "--mean", "nt:arithmetic:arithmetic:harmonic:0.5",
          *seed_args], 1, _scan_check(False, lanes["pair"])),
        (["check", "--what", "flags", "--mean", "stolarsky:3:1", *seed_args],
         0, _scan_check(True, lanes["flags"])),
        (["check", "--what", "invariance", "--pair",
          "pair:arithmetic:arithmetic:harmonic:0.5", *seed_args],
         0, _scan_check(True, lanes["pair"])),
        (["check", "--what", "trace", "--mean", "logarithmic", *seed_args],
         0, _scan_check(True, lanes["trace"])),
        (["check", "--what", "monotone", "--mean", "power:2", *seed_args],
         0, _scan_check(True, lanes["monotone"])),
        (["complement", "--mean", "harmonic", "--t", "0.5", "--c", "geometric",
          "--d", "arithmetic"], 0, _complement_table),
        (["complement", "--mean", "geometric", "--t", "0.25", "--c", "arithmetic",
          "--d", "logarithmic", "--emit", "csv"], 0, _complement_csv),
        (["complement", "--mean", "arithmetic", "--t", "0.5", "--cone", "lower",
          "--json"], 0, _complement_json),
        (["iterate", "--pair", "pair:geometric:arithmetic:harmonic:0.5",
          "--x0", repr(x0), "--y0", repr(y0), "--json"], 0, iterate_check),
        (["counterexample", "--n", "3", "--t", "0.5", "--x", repr(xe), "--json"],
         0, value_is("ratio", ratio, 1e-12)),
        (["check", "--what", "mean", "--mean", "stolarsky:1:1"],
         2, lambda out: (out == "", None)),
    ]


class Cli:
    """Cold CLI processes.  The CLI runs in a child the benchmark does not
    trace, so a traced op runs the same command as an untraced one."""

    name = "cli"
    rss_of_children = True  # the workload's process is the CLI child

    def __init__(self, seed: int, inject_fault: bool = False):
        self.seed = seed
        self.inject_fault = inject_fault

    def setup(self) -> None:
        self.scan_seed = self.seed % 1_000_000
        cfg = im.ScanConfig(seed=self.scan_seed)
        trace_x = np.geomspace(*cfg.domain, cfg.points_per_axis ** 2)
        lanes = {
            "pair": scan_lanes(cfg),
            "flags": flags_lanes(cfg),
            "trace": int(np.count_nonzero(np.abs(trace_x - 1.0) > 1e-9)),
            "monotone": cfg.points_per_axis ** 2,
        }
        self.cases = cli_cases(self.seed, self.scan_seed, lanes)
        self.cycle = len(self.cases)
        # wrong on purpose: counterexample succeeds with exit 0, not 1
        self.bad = (self.cases[-2][0], 1, self.cases[-2][2])
        self._run(self.cases[0][0])  # first cold start primes the caches

    def _run(self, argv):
        cmd = [sys.executable, "-m", "invmeans.cli", *argv]
        t0 = perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return perf_counter_ns() - t0, proc

    def op(self, i: int, tracer: Tracer | None = None) -> Outcome:
        if self.inject_fault and i % FAULT_EVERY == 0:
            argv, rc, validate = self.bad
        else:
            argv, rc, validate = self.cases[i % len(self.cases)]
        t0 = perf_counter_ns()
        try:
            ns, proc = self._run(argv)
            ok, lanes = validate(proc.stdout)
        except Exception as exc:
            return _failed(perf_counter_ns() - t0, exc)
        ok = ok and proc.returncode == rc
        return Outcome(ns, ok, lanes, f"{proc.returncode}\n{proc.stdout}".encode())


WORKLOADS = {w.name: w for w in (Sweep, Iterate, Cli, Bigscan)}
