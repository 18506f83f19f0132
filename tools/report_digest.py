"""Print one sha256 per report family, to compare two checkouts bit for bit.

    PYTHONPATH=src python3 tools/report_digest.py

The package under test is whichever ``invmeans`` the interpreter imports
(its location goes to stderr); the subjects and inputs come from
``perfbench/workloads.py`` of this checkout.  Families:

sweep    the 6,482 sweep reports (every row of the sweep table, in table
         order) on the default scan set
bigscan  the three bigscan checks at points_per_axis=192, seeds 1-3
iterate  2,000 iterate_pair traces and their trajectory reports, seed 7
cli      the benchmark's CLI cases for seed 1: exit code and stdout
specs    40,000 generated mean expressions, seed 1, most of them malformed:
         each parse's result type, spec and label, or its exception
         class, message and position
evaluators  the raw evaluators ``.fn`` of every catalog mean, five power
         and five Stolarsky means and the n-ary arithmetic mean (n = 2,
         3, 5) on the lanes no scan reaches: the 18 x 18 grid of 0,
         subnormals, DBL_MIN, 1 + 2**-52, 1e300, DBL_MAX, inf and nan
         (among others), near-diagonal pairs across 1e-300 .. 1e300, a
         tiled copy longer than three blocks, 0-d scalars, 0-d against
         1-D and an (18, 1) x (1, 18) outer product; each output's dtype,
         shape and bytes, or its exception class and message
failures every check on subjects that raise on one planted lane (the
         first, one in the second block or the middle of a one-block set,
         the last) at points_per_axis 16 and 32: F(x, y) of the meanness,
         flag and trace scans, the swapped, scaled and shifted flag calls,
         a hand-built pair's L, a kernel pair's fused evaluator only, a
         selection set's membership, an n-ary mean on any shape and on
         (n, m) stacks only, and a trajectory's target
escape   ``counterexample_ratio`` for n in {3, 4, 10, 100, 300}, t in
         {0.25, 0.5, 0.75} and x in {1, 10, 1e4, 1e300}, and the base and
         every tuple component of n-ary families whose components repeat
         (n = 3, 5, 8, M arithmetic or geometric, seeded components and
         (n, 1000) stacks, t in {0.25, 0.5, 0.75}), each digested as its
         output's bytes; about 0.1 s where each distinct component runs
         once, 1.6 s where each row evaluates its own (an O(n**2) cost)
real     the translative pairs of ``ARITHMETIC_ON_REALS`` and of the
         conjugates of the geometric, arithmetic and logarithmic means at
         t in {-0.5, 0, 0.25, 0.5, 0.9}: labels and flags of K, L and the
         target, K and L raw (``.fn``) and validated on seeded reals in
         [-700, 700] longer than three blocks, 0-d and mixed shapes,
         +-700, +-701 (the conjugates' overflow raise, also from a lane in
         the second block) and non-finite arguments, and
         ``check_invariance`` at the default config and points_per_axis 16

A report enters a digest as passed, worst violation, samples checked,
witness and detail.  Running this against two source trees and diffing
the output shows whether a change moved any report, and through the
specs family whether it changed how any expression parses.
"""
from __future__ import annotations

import dataclasses
import hashlib
import random
import struct
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import invmeans as im  # noqa: E402
from invmeans.means import _BLOCK  # noqa: E402
from invmeans.verify import (_dominating, _pair_samples, _scale_factors,  # noqa: E402
                             _trace_samples)
import workloads as wl  # noqa: E402


def _report(h, rep) -> None:
    h.update(wl.report_bits(rep))
    h.update(rep.detail.encode() + b"\0")


def sweep(h) -> int:
    checks = dict(wl.SWEEP_CHECKS)
    table = wl.sweep_table()
    for key, kind, _ in table:
        _report(h, checks[kind](wl.plain_subject(key)))
    return len(table)


def bigscan(h) -> int:
    A, H, L = (im.classical(n) for n in ("arithmetic", "harmonic", "logarithmic"))
    subjects = [
        (im.check_invariance, im.general_pair(L, A, H, 0.5)),
        (im.check_flags, im.stolarsky(3, 1)),
        (im.check_meanness, im.general_base(A, A, H, 0.5)),
    ]
    for seed in (1, 2, 3):
        cfg = im.ScanConfig(points_per_axis=wl.BIGSCAN_N, seed=seed)
        for check, subject in subjects:
            _report(h, check(subject, cfg))
    return 3 * len(subjects)


def iterate(h) -> int:
    pairs = wl.iterate_pairs()
    starts = wl.iterate_starts(7, 2000)
    for p, x0, y0 in starts:
        trace, rep = wl.iterate_once(pairs[p], x0, y0)
        h.update(np.ascontiguousarray(trace.iterates).tobytes())
        h.update(struct.pack("<?qdd?", trace.converged, trace.iterations,
                             trace.limit, trace.final_gap, trace.gap_monotone))
        _report(h, rep)
    return len(starts)


def cli(h) -> int:
    # the cases' validators are not run, so their lane counts do not matter
    cases = wl.cli_cases(1, 1, defaultdict(int))
    for argv, _, _ in cases:
        proc = subprocess.run([sys.executable, "-m", "invmeans.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        h.update(f"{proc.returncode}\n{proc.stdout}\0".encode())
    return len(cases)


# the pieces of generated expressions: every head of the grammar with its
# argument kinds (n number, c cone, m mean) and, for each kind, the pieces
# that fit it and some that do not; "arithmetic" and "foo" are not heads
SPEC_HEADS = {"power": "n", "stolarsky": "nn", "proj": "c", "mt": "mn",
              "nt": "mmmn", "pair": "mmmn", "arithmetic": "n", "foo": "m"}
SPEC_PIECES = {
    "n": (("0.5", "0.25", "0.9", "2", "3", "1.5", "-0.5"),
          ("0", "1", "-1", "1e-300", "1e309", "inf", "-inf", "nan", "x", "",
           " 2")),
    "c": (im.BUILTIN_CONE_NAMES, ("arithmetic", "foo", "")),
    "m": (im.CLASSICAL_NAMES, (*im.BUILTIN_CONE_NAMES, "power", "foo", "")),
}


def _spec_expr(rng, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(SPEC_PIECES["m"][rng.random() < 0.2])
    head = rng.choice(tuple(SPEC_HEADS))
    kinds = SPEC_HEADS[head]
    if rng.random() < 0.1:  # a wrong argument count
        kinds = kinds[:-1] if rng.random() < 0.5 else kinds + "n"
    args = [head]
    for kind in kinds:
        if kind == "m" and rng.random() < 0.4:
            arg = _spec_expr(rng, depth - 1)
            arg = f"({arg})" if ":" in arg or rng.random() < 0.1 else arg
        else:
            arg = rng.choice(SPEC_PIECES[kind][rng.random() < 0.2])
        args.append(arg)
    return ":".join(args)


def _spec_mutate(rng, s: str) -> str:
    i = rng.randrange(len(s) + 1)
    edit = rng.randrange(4)
    if edit == 0:  # a stray parenthesis or colon
        return s[:i] + rng.choice("():") + s[i:]
    if edit == 1:  # a lost character
        return s[:i] + s[i + 1:]
    if edit == 2:  # a group around all of it
        return f"({s})"
    return s[:i] + "(" + s[i:] + ")"


def _spec_cases(seed: int, count: int) -> list[str]:
    """``count`` expressions from the grammar's pieces, half of them mutated."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        s = _spec_expr(rng, 3)
        while rng.random() < 0.5:
            s = _spec_mutate(rng, s)
        cases.append(s)
    return cases


def _spec_outcome(s: str) -> str:
    try:
        r = im.parse_mean_spec(s)
    except Exception as e:  # noqa: BLE001 - any raise is an outcome
        return f"{type(e).__name__}|{e}|{getattr(e, 'position', None)}"
    labels = (r.K.label, r.L.label, r.target.label, r.t) if isinstance(
        r, im.MeanPair) else r.label
    return f"{type(r).__name__}|{r.spec}|{labels!r}"


def specs(h) -> int:
    cases = _spec_cases(1, 40_000)
    for s in cases:
        h.update(f"{s}\0{_spec_outcome(s)}\0".encode())
    return len(cases)


# 0, subnormals, DBL_MIN, the float range's edges, 1 and its successor,
# inf and nan: the lanes where evaluators overflow, underflow or patch
EDGE_VALUES = np.array([
    0.0, 5e-324, 1e-310, sys.float_info.min, 4.5e-308, 1e-300, 1e-8, 0.5,
    1.0, 1.0 + 2.0 ** -52, 2.0, 3.0, 1e8, 1e300, 8.98e307, sys.float_info.max,
    np.inf, np.nan,
])


def _evaluator_subjects() -> list:
    return ([im.classical(name).fn for name in im.CLASSICAL_NAMES]
            + [im.power_mean(p).fn for p in (-3.0, -0.5, 0.5, 2.0, 7.0)]
            + [im.stolarsky(r, s).fn for r, s in
               ((3.0, 1.0), (-2.0, 1.0), (0.5, -0.5), (-3.0, -1.0), (2.0, -1.0))])


def _evaluator_inputs() -> list:
    """(x, y) argument pairs: the edge grid, near-diagonal lanes, long and mixed shapes."""
    v = EDGE_VALUES
    grid = (np.repeat(v, v.size), np.tile(v, v.size))
    # relative gaps 1e-16 .. 1e-7 on both sides of the diagonal
    base = np.geomspace(1e-300, 1e300, 61)
    gaps = np.concatenate([-np.geomspace(1e-16, 1e-7, 19), np.geomspace(1e-16, 1e-7, 19)])
    near = (np.repeat(base, gaps.size), np.outer(base, 1.0 + gaps).ravel())
    both = tuple(np.concatenate(c) for c in zip(grid, near))
    copies = 3 * _BLOCK // both[0].size + 1
    inputs = [grid, near, tuple(np.tile(c, copies) for c in both)]
    inputs += [(np.asarray(a), np.asarray(b)) for a, b in zip(*grid)]
    inputs += [(np.float64(a), v) for a in v] + [(v, np.asarray(b)) for b in v]
    inputs.append((v[:, None], v[None, :]))
    return inputs


def _evaluator_outcome(h, fn, *args) -> int:
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as e:  # noqa: BLE001 - any raise is an outcome
        h.update(f"{type(e).__name__}|{e}\0".encode())
        return 0
    a = np.ascontiguousarray(out)
    h.update(f"{a.dtype}|{a.shape}\0".encode() + a.tobytes())
    return a.size


def evaluators(h) -> int:
    lanes = 0
    inputs = _evaluator_inputs()
    for fn in _evaluator_subjects():
        for x, y in inputs:
            lanes += _evaluator_outcome(h, fn, x, y)
    for n in (2, 3, 5):
        fn = im.nary_arithmetic(n).fn
        for x, y in inputs:
            # n rows alternating x and y, broadcast to one shape
            xs = np.stack(np.broadcast_arrays(*((x, y) * n)[:n]))
            lanes += _evaluator_outcome(h, fn, xs)
    return lanes


def _planted(n: int) -> tuple[int, int, int]:
    """The first lane, one in the second block (or the middle one), the last."""
    return 0, _BLOCK + 7 if n > _BLOCK + 7 else n // 2, n - 1


def _refusing(fn, *values):
    """``fn``, raising on a call whose arguments hold ``values`` on one lane."""
    def refuse(*args):
        if np.any(np.logical_and.reduce([np.equal(a, v) for a, v in zip(args, values)])):
            raise ValueError("planted lane")
        return fn(*args)

    return refuse


def _refusing_column(fn, column, stacks_only: bool):
    """The n-ary ``fn``, raising on the column ``column`` (and on 1-D calls if ``stacks_only``)."""
    def refuse(xs):
        if stacks_only and xs.ndim != 2:
            raise ValueError("stacks only")
        if np.any(np.all(xs.T == column, axis=-1)):
            raise ValueError("planted column")
        return fn(xs)

    return refuse


def failures(h) -> int:
    A, G, H = (im.classical(n) for n in ("arithmetic", "geometric", "harmonic"))
    F3 = im.nary_arithmetic(3)
    reports = []
    for n in (16, 32):
        cfg = im.ScanConfig(points_per_axis=n)
        x, y = _pair_samples(cfg)
        lam = np.concatenate([c for (c,) in _scale_factors(cfg, x, y)])
        x2, y2 = (np.concatenate(c) for c in zip(*_dominating(cfg, x, y)))
        for j in _planted(x.size):
            a, b = x[j], y[j]
            refuse = _refusing(A.fn, a, b)
            reports.append(im.check_meanness(im.Mean(refuse, "refusing"), cfg))
            # F(x, y), then the swapped, scaled and shifted flag calls
            for fn in (refuse, _refusing(A.fn, b, a),
                       _refusing(A.fn, lam[j] * a, lam[j] * b),
                       _refusing(A.fn, x2[j], y2[j])):
                reports.append(im.check_flags(dataclasses.replace(A, fn=fn), cfg))
            L = im.Mean(_refusing(H.fn, a, b), "refusing")
            reports.append(im.check_invariance(im.MeanPair(A, L, target=G), cfg))
            # only the fused evaluator raises; K.fn and L.fn keep the kernel
            pair = im.general_pair(G, A, H, 0.5)
            object.__setattr__(pair, "fused", _refusing(pair.fused, a, b))
            reports.append(im.check_invariance(pair, cfg))
            cone = im.ConeSet(_refusing(np.less, a, b), True, True)
            reports.append(im.check_exchange_property(cone, cfg=cfg))
        t = _trace_samples(cfg)
        for j in _planted(t.size):
            F = dataclasses.replace(A, fn=_refusing(A.fn, t[j], 1.0))
            reports += [im.check_trace_meanness(F, cfg), im.check_monotone_trace(F, cfg)]
        seen = []
        im.check_nary_meanness(im.NaryMean(lambda xs: seen.append(xs) or F3.fn(xs), 3,
                                           "recording"), cfg)
        columns = np.concatenate(seen, axis=1).T
        for j in _planted(len(columns)):
            for stacks_only in (False, True):
                F = im.NaryMean(_refusing_column(F3.fn, columns[j], stacks_only), 3,
                                "refusing")
                reports.append(im.check_nary_meanness(F, cfg))
    trace = im.iterate_pair(im.MeanPair(A, H, target=G), 1.0, 4.0)
    for j in _planted(len(trace.iterates)):
        target = im.Mean(_refusing(G.fn, *trace.iterates[j]), "refusing")
        reports.append(im.invariant_value_along_trajectory(
            im.MeanPair(A, H, target=target), trace))
    for rep in reports:
        _report(h, rep)
    return len(reports)


def escape(h) -> int:
    lanes = 0
    for n in (3, 4, 10, 100, 300):
        for t in (0.25, 0.5, 0.75):
            for x in (1.0, 10.0, 1e4, 1e300):
                h.update(struct.pack("<d", im.counterexample_ratio(n, t, x)))
                lanes += 1
    # families whose components repeat, on seeded (n, m) stacks
    rng = np.random.default_rng(1)
    for n in (3, 5, 8):
        A, G = im.nary_arithmetic(n), im.nary_geometric(n)
        xs = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), (n, 1000)))
        for M in (A, G):
            components = tuple((A, G)[i] for i in rng.integers(0, 2, n))
            for t in (0.25, 0.5, 0.75):
                lanes += _evaluator_outcome(h, im.nary_general_base(M, components, t).fn, xs)
                for K in im.nary_invariant_tuple(M, components, t):
                    lanes += _evaluator_outcome(h, K.fn, xs)
    return lanes


# the real-line targets of the translative pairs and their parameters
REAL_TARGETS = ("geometric", "arithmetic", "logarithmic")
REAL_T = (-0.5, 0.0, 0.25, 0.5, 0.9)


def _real_inputs() -> list:
    """(x, y) argument pairs on the real line: seeded, blocked, 0-d, at and past +-700."""
    rng = np.random.default_rng(1)
    x, y = rng.uniform(-700.0, 700.0, (2, 3 * _BLOCK + 5))
    y[::7] = x[::7]
    past = x.copy()
    past[_BLOCK + 7] = 701.0  # a lane past the conjugates' limit, in the second block
    return [(x, y), (past, y), (np.float64(x[0]), y[:10]), (np.asarray(1.5), np.asarray(-2.0)),
            (700.0, -700.0), (701.0, 0.0), (0.0, -701.0), (np.inf, 0.0), (np.nan, 1.0)]


def real(h) -> int:
    lanes = 0
    inputs = _real_inputs()
    targets = [im.ARITHMETIC_ON_REALS] + [im.translative_conjugate(im.classical(n))
                                          for n in REAL_TARGETS]
    for N in targets:
        for t in REAL_T:
            pair = im.translative_pair(N, t)
            flags = [(M.label, M.symmetric, M.monotone, M.translative, M.strict)
                     for M in (pair.K, pair.L, pair.target)]
            h.update(repr((flags, pair.t, pair.spec)).encode())
            for M in (pair.K, pair.L):
                for x, y in inputs:
                    lanes += _evaluator_outcome(h, M.fn, x, y)
                    lanes += _evaluator_outcome(h, M, x, y)
            for cfg in (im.DEFAULT_CONFIG, im.ScanConfig(points_per_axis=16)):
                _report(h, im.check_invariance(pair, cfg))
    return lanes


FAMILIES = {f.__name__: f for f in (sweep, bigscan, iterate, cli, specs, evaluators,
                                    failures, escape, real)}


def main() -> None:
    print(f"invmeans from {Path(im.__file__).parent}", file=sys.stderr)
    for name, family in FAMILIES.items():
        h = hashlib.sha256()
        count = family(h)
        print(f"{name} {count} {h.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
