"""Numeric property scans: mean-ness, invariance, trace criteria, flags,
the exchange property, n-ary mean-ness and invariance along an iteration.

Every scan walks a deterministic sample set derived from a ScanConfig:
a log-spaced grid, explicit extreme-ratio probes at 10^k, and a log-uniform
random supplement from a seeded generator.  Identical configs therefore
produce bit-identical reports.  Violations are signed relative magnitudes;
a report passes exactly when the worst violation stays at or below the
configured tolerance.

Every check of the package lives here, so no other module knows how
lanes are sampled, blocked and reduced.  Each check is a ``measure``
generator that yields (violations, witness columns) block by block, run
by one engine, ``_scan``: numpy warnings silenced, one running argmax
over the blocks, and an evaluator exception turned into a failed
report whose witness is the first sample on which the same ``measure``,
run again one sample at a time, raises.  Non-finite output fails too;
nothing is raised out of a scan.

A scan streams its lanes through blocks of ``means._BLOCK`` lanes
(``_blocks``), so its violation arithmetic, the flag scans' random draws
and the invariance scan's K, L and M columns stay cache-sized.  Only the
subject's first evaluation F(x, y) of a meanness, flag or trace scan runs
on all lanes in one call (the multi-pass evaluators block it themselves,
``means._blockwise``); checks whose violation compares lanes with each
other (adjacent trace values, a trajectory's first value) evaluate on
all lanes first and stream elementwise columns.  Reports do not depend on
the block size.  The invariance scan takes K, L and M(x, y) from the
pair's fused evaluator (``MeanPair.evaluate``).  Only the latest pair
sample set stays cached (``_latest``), and it is dropped before the next
one is built, so a fresh config never holds two sets.

Random draws (the supplement, the homogeneity scale factors and the
dominating pairs of the monotone scan) are ``low + (high - low) * u`` on
``Generator.random``, written out (``_log_uniform``): the formula that
``Generator.uniform(low, high)`` evaluates on the same stream, so the
draws are the same bits, but without its broadcasting path, which costs
several times as much per lane when ``low`` is an array.  The sample set
is filled in place: grid, ratio probes, then the supplement, drawn,
scaled and exponentiated in its slice of the two output arrays.  A
sample set too large to allocate raises ParameterError (``_sized``).
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cache, wraps

import numpy as np

from . import iterate, multivar, projective
from .errors import DomainError, ParameterError
from .means import (_BLOCK, _float_pair, _floats, _integer, _positive_finite, _read,
                    _real, _unit)

__all__ = [
    "ScanConfig",
    "ScanReport",
    "DEFAULT_CONFIG",
    "check_meanness",
    "check_trace_meanness",
    "check_monotone_trace",
    "check_invariance",
    "check_flags",
    "check_exchange_property",
    "check_nary_meanness",
    "invariant_value_along_trajectory",
]


@dataclass(frozen=True)
class ScanConfig:
    """Deterministic sampling plan for a verification scan.

    Parameters
    ----------
    domain : (float, float)
        Positive interval scanned on a log scale.
    points_per_axis : int
        Grid resolution; pair scans use the full 2-D grid, trace scans a
        1-D grid of points_per_axis**2 values for a comparable budget.
    rel_tol : float
        Pass threshold for the worst signed relative violation.
    seed : int
        Non-negative seed for the random log-uniform supplement (10x the
        grid size).
    """

    domain: tuple[float, float] = (1e-6, 1e6)
    points_per_axis: int = 64
    rel_tol: float = 1e-11
    seed: int = 0

    def __post_init__(self):
        # each field read in declaration order, the first bad one raising
        for name, kind, ok, message in (
                ("domain", _float_pair, lambda d: 0.0 < d[0] < d[1] < math.inf,
                 "scan domain must satisfy 0 < lower < upper"),
                ("points_per_axis", _integer, lambda n: n >= 8,
                 "points_per_axis must be at least 8"),
                ("rel_tol", _real, _unit, "rel_tol must lie in (0, 1)"),
                ("seed", _integer, lambda n: n >= 0, "seed must be a non-negative integer")):
            object.__setattr__(self, name, _read(getattr(self, name), kind, ok, message))


DEFAULT_CONFIG = ScanConfig()


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one scan: pass/fail, worst violation, and its witness.

    ``witness`` is the sample achieving the worst violation; its layout
    depends on the check (documented per check function).  ``passed`` is
    equivalent to ``worst_violation <= rel_tol`` of the config used.
    """

    passed: bool
    worst_violation: float
    witness: tuple[float, ...]
    samples_checked: int
    detail: str = ""

    def to_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "witness": list(self.witness),
            "samples": self.samples_checked,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def _log_uniform(rng, low, high, out):
    """Fill ``out`` with exp of ``rng.uniform(low, high)`` draws, in place.

    ``low + (high - low) * u`` on ``rng.random`` is the formula
    ``Generator.uniform`` evaluates on the same stream, so the values
    are the same bits, without its broadcasting path.
    """
    rng.random(out=out)
    out *= np.subtract(high, low)
    out += low
    return np.exp(out, out=out)


def _sized(sampler):
    """``sampler(cfg, ...)``, raising ParameterError for a set too large to allocate.

    numpy raises ValueError ("Maximum allowed dimension exceeded") or
    MemoryError there; the config's other inputs are valid by construction.
    """
    @wraps(sampler)
    def sized(cfg, *args):
        try:
            return sampler(cfg, *args)
        except (ValueError, MemoryError):
            raise ParameterError(f"points_per_axis={cfg.points_per_axis}: the scan's "
                                 "samples are too large to allocate") from None
    return sized


def _latest(build):
    """``build(cfg)``, cached for the latest cfg only.

    The previous result is dropped before the next one is built, so the
    cache never holds two sets (``lru_cache(maxsize=1)`` would keep the
    old set alive until the new one is stored).
    """
    slot: dict = {}

    @wraps(build)
    def latest(cfg):
        if cfg not in slot:
            slot.clear()
            slot[cfg] = build(cfg)
        return slot[cfg]
    return latest


@_latest
@_sized
def _pair_samples(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Shared (x, y) sample set: grid + ratio probes + random supplement."""
    lo, hi = cfg.domain
    n = cfg.points_per_axis
    # counterexample violations live at extreme ratios, so probe them
    # explicitly at ratios 10^k as far as the domain allows; a probe that
    # rounds past an end of the domain is clamped onto it
    center = math.sqrt(lo * hi)
    probes = []
    for k in range(1, 13):
        ratio = 10.0 ** k
        if ratio > hi / lo:
            break
        a = min(center * math.sqrt(ratio), hi)
        b = max(center / math.sqrt(ratio), lo)
        probes.extend([(a, b), (b, a)])
    grid, k, m = n * n, len(probes), 10 * n * n
    x = np.empty(grid + k + m)
    y = np.empty(grid + k + m)
    axis = np.geomspace(lo, hi, n)
    x[:grid].reshape(n, n)[...] = axis
    y[:grid].reshape(n, n)[...] = axis[:, None]
    if probes:
        x[grid:grid + k], y[grid:grid + k] = zip(*probes)
    rng = np.random.default_rng(cfg.seed)
    llo, lhi = math.log(lo), math.log(hi)
    _log_uniform(rng, llo, lhi, x[grid + k:])
    _log_uniform(rng, llo, lhi, y[grid + k:])
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@_sized
def _trace_samples(cfg: ScanConfig) -> np.ndarray:
    lo, hi = cfg.domain
    x = np.geomspace(lo, hi, cfg.points_per_axis ** 2)
    x.setflags(write=False)
    return x


def _lanes(v, x) -> np.ndarray:
    # a float64 column of x's shape, the common case, is passed through
    # as it is; anything else (a scalar, a 0-d or broadcast result) is
    # broadcast to x's shape as a read-only view
    if getattr(v, "shape", None) == x.shape and v.dtype == np.float64:
        return v
    return np.broadcast_to(np.asarray(v, dtype=float), x.shape)


_FAILED = "evaluation failed"


def _blocks(*columns):
    """Consecutive ``_BLOCK``-lane slices of equal-length 1-D columns, one tuple per block.

    The last block may be partial.
    """
    for lo in range(0, len(columns[0]), _BLOCK):
        yield tuple(c[lo:lo + _BLOCK] for c in columns)


def _failure_report(measure, lanes, exc: Exception) -> ScanReport:
    # the vector evaluation raised; run ``measure`` again on one sample at
    # a time, as fresh one-element arrays, to locate the first it rejects
    lanes = [np.asarray(a, dtype=float) for a in lanes]
    witness: tuple[float, ...] = ()
    for i in range(lanes[0].size):
        row = tuple(a[i:i + 1].copy() for a in lanes)
        try:
            for _ in measure(*row):
                pass
        except Exception:
            witness = tuple(float(a[0]) for a in row)
            break
    return ScanReport(False, math.inf, witness, lanes[0].size, f"{_FAILED}: {exc}")


def _scan(tol: float, lanes, measure, samples: int | None = None,
          rows=None) -> ScanReport:
    """The scan engine that every check plugs into.

    ``measure(*lanes)`` yields (violations, witness columns) block by
    block, normally over ``_blocks``, so no temporary outgrows a block.
    The engine keeps a running worst violation, its witness and the lane
    count; the report is the worst violation against ``tol``, counting
    ``samples`` (default: one per violation).  A non-finite violation
    ranks above every finite one and a tie keeps the earlier lane, so the
    report is the one a single argmax over all lanes would give.  Numpy
    warnings are silenced throughout.  If ``measure`` raises, it runs
    again on one sample of ``lanes`` (of ``rows()`` when given) at a
    time, and the first sample it rejects is the witness of a failed
    report.
    """
    worst, witness, count = -math.inf, (), 0
    with np.errstate(all="ignore"):
        try:
            for viol, columns in measure(*lanes):
                viol = np.asarray(viol, dtype=float).ravel()
                if viol.size == 0:
                    continue
                count += viol.size
                i = int(np.argmax(viol))
                if not (viol[i] < math.inf and viol.min() > -math.inf):
                    # a non-finite lane (nan, +inf or -inf, which argmax
                    # alone would rank apart) ranks as +inf: the copy is
                    # paid only by a block that has one
                    viol = np.where(np.isfinite(viol), viol, np.inf)
                    i = int(np.argmax(viol))
                if viol[i] > worst:
                    worst = float(viol[i])
                    witness = tuple(float(c[i]) for c in columns)
        except Exception as exc:
            return _failure_report(measure, lanes if rows is None else rows(), exc)
    if count == 0:
        return ScanReport(True, 0.0, (), 0)
    detail = "" if worst < math.inf else "non-finite evaluation at witness"
    return ScanReport(worst <= tol, worst, witness,
                      count if samples is None else int(samples), detail)


def _envelope(lo, hi, v):
    # signed excursion of v outside [lo, hi], relative to hi; lo and hi
    # are the caller's fresh arrays, and lo is overwritten with the result
    lo -= v
    np.maximum(lo, v - hi, out=lo)
    lo /= hi
    return lo


def check_meanness(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Scan min(x,y) <= F(x,y) <= max(x,y) over the configured samples.

    Violation is the signed relative excursion outside [min, max], scaled
    by max(x,y).  Witness layout: (x, y, F(x,y)).
    """
    cfg = cfg or DEFAULT_CONFIG

    def measure(x, y):
        for x, y, v in _blocks(x, y, _lanes(F.fn(x, y), x)):
            yield _envelope(np.minimum(x, y), np.maximum(x, y), v), (x, y, v)

    return _scan(cfg.rel_tol, _pair_samples(cfg), measure)


def _invariance_terms(pair, x, y):
    """K, L, M(K, L), M(x, y) and |M(K, L) - M(x, y)| / M(x, y) at (x, y).

    K, L and M(x, y) come from one ``pair.evaluate`` call, a single
    kernel pass for the kernel constructions.
    """
    with np.errstate(all="ignore"):
        kv, lv, outer = (_lanes(v, x) for v in pair.evaluate(x, y))
        inner = _lanes(pair.target.fn(kv, lv), kv)
        residual = np.abs(inner - outer)
        residual /= outer
    return kv, lv, inner, outer, residual


def check_invariance(pair, cfg: ScanConfig | None = None) -> ScanReport:
    """Scan |M(K(x,y), L(x,y)) - M(x,y)| / M(x,y) for a MeanPair.

    K, L and M(x, y) come from one ``pair.evaluate`` call per block, so a
    kernel pair runs its kernel once per lane.  Witness layout:
    (x, y, M(K,L), M(x,y)).
    """
    cfg = cfg or DEFAULT_CONFIG

    def measure(x, y):
        for x, y in _blocks(x, y):
            _, _, inner, outer, viol = _invariance_terms(pair, x, y)
            yield viol, (x, y, inner, outer)

    return _scan(cfg.rel_tol, _pair_samples(cfg), measure)


def _trace_scan(F, cfg: ScanConfig | None, measure, skip_one: bool = False) -> ScanReport:
    # ``measure(x, f)`` sees the trace f(x) = F(x, 1) on the 1-D samples,
    # evaluated on all of them at once, without those within 1e-9 of
    # x = 1 when ``skip_one`` is set
    if not F.homogeneous:
        raise DomainError(f"{F.label}: trace checks require the homogeneous flag")
    cfg = cfg or DEFAULT_CONFIG
    x = _trace_samples(cfg)
    if skip_one:
        x = x[np.abs(x - 1.0) > 1e-9]
    return _scan(cfg.rel_tol, (x, np.ones_like(x)),
                 lambda x, one: measure(x, _lanes(F.fn(x, one), x)), x.size)


def check_trace_meanness(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Check 0 < (f(x) - 1)/(x - 1) <= 1 for the trace f(x) = F(x, 1).

    Equivalent to the mean property for a homogeneous F.  The divided
    difference may touch 0 (min/max do), which the tolerance admits.
    Points within 1e-9 of x = 1 are excluded as numerically singular.
    Witness layout: (x, f(x)).
    """
    def measure(x, m):
        for x, m in _blocks(x, m):
            d = (m - 1.0) / (x - 1.0)
            yield np.maximum(-d, d - 1.0), (x, m)

    return _trace_scan(F, cfg, measure, skip_one=True)


def check_monotone_trace(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Check that the trace f(x) = F(x, 1) is nondecreasing on a log grid.

    Requires the homogeneous flag (the trace determines F only then).  For
    a symmetric homogeneous F a passing scan certifies monotonicity of F
    itself; without symmetry it certifies only the trace direction.
    Witness layout: (x_i, x_{i+1}, f(x_i), f(x_{i+1})) at the worst
    adjacent decrease.
    """
    def measure(x, m):
        for x0, x1, m0, m1 in _blocks(x[:-1], x[1:], m[:-1], m[1:]):
            yield (m0 - m1) / np.abs(m1), (x0, x1, m0, m1)

    return _trace_scan(F, cfg, measure)


# Flag scans, one ``(flag, draw, measure)`` entry each in ``_FLAG_SCANS``.
# ``draw(cfg, x, y)``, where a scan has one, yields its random columns
# block by block.  ``measure(fn, tol, x, y, v, *draws)`` makes the scan's
# own call of ``fn``, if it has one, beside the shared v = F(x, y), and
# maps both to (violations, witness columns).

def _scale_factors(cfg, x, y):
    # log-uniform on [1e-3, 1e3] from one stream, the documented factors
    # pinned in the leading lanes
    rng = np.random.default_rng(cfg.seed + 1)
    for i, (b,) in enumerate(_blocks(x)):
        lam = _log_uniform(rng, math.log(1e-3), math.log(1e3), np.empty(b.size))
        if i == 0:
            lam[:4] = (1e-3, 1.0, 7.5, 1e3)
        yield (lam,)


def _dominating(cfg, x, y):
    # (x2, y2) log-uniform on [x, hi] x [y, hi]: x2 draws the stream of
    # seed + 2 from its start, y2 continues it after all of x2's draws.
    # exp(log x) can round below x, so each draw is clamped onto [x, hi]
    lhi = math.log(cfg.domain[1])
    rng_x = np.random.default_rng(cfg.seed + 2)
    rng_y = np.random.Generator(np.random.PCG64(cfg.seed + 2).advance(np.size(x)))
    for x, y in _blocks(x, y):
        x2 = _log_uniform(rng_x, np.log(x), lhi, np.empty(x.size))
        y2 = _log_uniform(rng_y, np.log(y), lhi, np.empty(y.size))
        yield np.maximum(x2, x, out=x2), np.maximum(y2, y, out=y2)


def _scale(x, y, v):
    # max(x, y, |v|): max(x, y) for a mean, and |F(x, y)| for a function
    # above it (an ``nt`` base), whose rounding grows with its value; one
    # temporary per block, as max(x, y) alone took
    s = np.abs(v)
    return np.maximum(np.maximum(s, x, out=s), y, out=s)


def _symmetric(fn, tol, x, y, v):
    v2 = _lanes(fn(y, x), x)
    return np.abs(v - v2) / _scale(x, y, v), (x, y, v, v2)


def _homogeneous(fn, tol, x, y, v, lam):
    vs = _lanes(fn(lam * x, lam * y), x)
    return np.abs(vs - lam * v) / (lam * _scale(x, y, v)), (x, y, lam)


def _monotone(fn, tol, x, y, v, x2, y2):
    v2 = _lanes(fn(x2, y2), x)
    return (v - v2) / np.abs(v2), (x, y, x2, y2)


def _strict(fn, tol, x, y, v):
    # strictness is only meaningful away from the diagonal; require the
    # margin to clear the tolerance at well-separated arguments, scaling
    # each side by its own envelope endpoint (a mean may legitimately hug
    # min or max at extreme ratios without touching it)
    keep = np.abs(np.log(x / y)) >= 0.1
    x, y, v = x[keep], y[keep], v[keep]
    mn = np.minimum(x, y)
    mx = np.maximum(x, y)
    margin = np.minimum((v - mn) / mn, (mx - v) / mx)
    return 2.0 * tol - margin, (x, y, v)


_FLAG_SCANS = (
    ("symmetric", None, _symmetric),
    ("homogeneous", _scale_factors, _homogeneous),
    ("monotone", _dominating, _monotone),
    ("strict", None, _strict),
)


def _flag_scan(fn, cfg, value, draw, flag_measure) -> ScanReport:
    # one flag scan; ``value()`` is F(x, y) on all lanes.  A lane replayed
    # after a raise comes with its own draws and evaluates F itself, so
    # the witness is the first sample whose F(x, y) or own call raises
    x, y = _pair_samples(cfg)

    def measure(a, b, *given):
        if a is x:
            v, draws = value(), draw(cfg, x, y) if draw else itertools.repeat(())
        else:
            v, draws = _lanes(fn(a, b), a), (given,)
        for (a, b, v), d in zip(_blocks(a, b, v), draws):
            yield flag_measure(fn, cfg.rel_tol, a, b, v, *d)

    def rows():
        return (x, y, *(np.concatenate(c) for c in zip(*draw(cfg, x, y))))

    return _scan(cfg.rel_tol, (x, y), measure, rows=rows if draw else None)


def check_flags(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Validate each declared flag by sampling; report the first falsified.

    Flags are tested in declaration order: symmetric, homogeneous,
    monotone (by sampled pair dominance), strict (by clearance of the
    min/max envelope at separated arguments).  A failing report carries
    ``detail = "flag falsified: <name>"``.  Undeclared flags are skipped;
    a mean with no flags passes vacuously.  The symmetric and homogeneous
    violations are relative to max(x, y, |F(x, y)|) (times the scale
    factor), so a function above max(x, y), such as an ``nt`` base, is
    judged by its own rounding.  F(x, y) is evaluated once, on all lanes,
    and shared by the flag scans; an evaluation that raises fails the
    report with the first sample that raises as witness.
    """
    cfg = cfg or DEFAULT_CONFIG
    x, y = _pair_samples(cfg)
    value = cache(lambda: _lanes(F.fn(x, y), x))
    sub_reports = []
    for name, draw, flag_measure in _FLAG_SCANS:
        if not getattr(F, name):
            continue
        rep = _flag_scan(F.fn, cfg, value, draw, flag_measure)
        if rep.detail.startswith(_FAILED):
            return rep
        if not rep.passed:
            return dataclasses.replace(rep, detail=f"flag falsified: {name}")
        sub_reports.append(rep)
    if not sub_reports:
        return ScanReport(True, 0.0, (), 0, "no flags declared")
    worst = max(sub_reports, key=lambda r: r.worst_violation)
    total = sum(r.samples_checked for r in sub_reports)
    return ScanReport(True, worst.worst_violation, worst.witness, total, "")


def check_exchange_property(A: projective.ConeSet, samples=None,
                            cfg: ScanConfig | None = None) -> ScanReport:
    """Verify {P_A(x,y), P_{A'}(x,y)} == {x, y} as unordered pairs.

    ``samples`` is an optional (m, 2) array of positive finite pairs;
    without it the scan uses the shared sample set of ``cfg``.  Holds
    exactly (zero violation) for every selection mean; the scan guards the
    selection code that the log and xy pairs run rather than the
    mathematics.  Witness layout: (x, y, P_A, P_{A'}).
    """
    cfg = cfg or DEFAULT_CONFIG
    if samples is None:
        x, y = _pair_samples(cfg)
    else:
        arr = _read(samples, _floats,
                    lambda a: a.ndim == 2 and a.shape[1] == 2 and _positive_finite(a),
                    "samples must be an (m, 2) array of positive finite pairs", DomainError)
        x, y = arr[:, 0], arr[:, 1]

    def measure(x, y):
        for x, y in _blocks(x, y):
            # looked up on the module at call time, so the scan runs the
            # selection code that the log and xy pairs run
            k, l = projective._selections(A, x, y)
            as_given = np.maximum(np.abs(k - x), np.abs(l - y))
            swapped = np.maximum(np.abs(k - y), np.abs(l - x))
            yield np.minimum(as_given, swapped) / np.maximum(x, y), (x, y, k, l)

    return _scan(cfg.rel_tol, (x, y), measure)


@_sized
def _nary_samples(cfg: ScanConfig, n: int) -> np.ndarray:
    # (n, 11 m) columns: the ray (1, x, ..., x) on the m trace samples,
    # then 10 m log-uniform vectors
    lo, hi = cfg.domain
    m = cfg.points_per_axis ** 2
    ray = np.ones((n, m))
    ray[1:, :] = _trace_samples(cfg)
    rng = np.random.default_rng(cfg.seed)
    rand = _log_uniform(rng, np.log(lo), np.log(hi), np.empty((n, 10 * m)))
    return np.concatenate([ray, rand], axis=1)


def check_nary_meanness(F: multivar.NaryMean,
                        cfg: ScanConfig | None = None) -> ScanReport:
    """Scan min <= F <= max over the ray (1, x, ..., x) plus random vectors.

    The ray is where the failing family of ``multivar`` escapes, so it is
    sampled densely (points_per_axis**2 values of x over the domain); the
    random supplement draws 10x that many log-uniform vectors.  Witness
    layout: (x_1, ..., x_n, F(x)).
    """
    cfg = cfg or DEFAULT_CONFIG

    def measure(*rows):
        for block in _blocks(*rows):
            b = np.stack(block)
            v = np.asarray(F.fn(b), dtype=float)
            yield _envelope(b.min(axis=0), b.max(axis=0), v), block + (v,)

    return _scan(cfg.rel_tol, tuple(_nary_samples(cfg, F.n)), measure)


def invariant_value_along_trajectory(pair, trace: iterate.IterationTrace,
                                     rel_tol: float = 1e-10) -> ScanReport:
    """Check that M(x_n, y_n) is constant along an iteration trajectory.

    For a genuinely complementary pair the target value never moves; a
    drifting value is exactly how a non-complementary pair betrays itself
    after one step.  ``rel_tol`` must lie in (0, 1).  Witness layout:
    (n, x_n, y_n, M(x_n, y_n)).
    """
    rel_tol = _read(rel_tol, _real, _unit, "rel_tol must lie in (0, 1)")

    def measure(xs, ys):
        values = np.asarray(pair.target.fn(xs, ys), dtype=float)
        for n, xs, ys, v in _blocks(np.arange(values.size), xs, ys, values):
            yield np.abs(v - values[0]) / abs(values[0]), (n, xs, ys, v)

    return _scan(rel_tol, (trace.iterates[:, 0], trace.iterates[:, 1]),
                 measure)
