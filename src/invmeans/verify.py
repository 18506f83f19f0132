"""Numeric property scans: mean-ness, invariance, trace criteria, flags.

Every scan walks a deterministic sample set derived from a ScanConfig:
a log-spaced grid, explicit extreme-ratio probes at 10^k, and a log-uniform
random supplement from a seeded generator.  Identical configs therefore
produce bit-identical reports.  Violations are signed relative magnitudes;
a report passes exactly when the worst violation stays at or below the
configured tolerance.

Every check, here and in ``projective``, ``multivar`` and ``iterate``, is
a ``measure`` callback mapping its sample lanes to (violations, witness
columns), run by one engine, ``_scan``: numpy warnings silenced, one argmax
reduction (``_finish``), and an evaluator exception turned into a failed
report whose witness is the first sample a one-at-a-time replay rejects.
Non-finite output fails too; nothing is raised out of a scan.

A scan hands each evaluator all of its lanes in one call; the library's
multi-pass evaluators split that call into cache-sized blocks themselves
(``means._blockwise``), so the scans here stay single-call and the
reports do not depend on the block size.  The invariance scan takes K, L
and M(x, y) from the pair's fused evaluator (``MeanPair.evaluate``).
Only the latest pair and trace sample sets stay cached.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "ScanConfig",
    "ScanReport",
    "DEFAULT_CONFIG",
    "check_meanness",
    "check_trace_meanness",
    "check_monotone_trace",
    "check_invariance",
    "check_flags",
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
        lo, hi = (float(self.domain[0]), float(self.domain[1]))
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
            raise ParameterError("scan domain must satisfy 0 < lower < upper")
        object.__setattr__(self, "domain", (lo, hi))
        if int(self.points_per_axis) < 8:
            raise ParameterError("points_per_axis must be at least 8")
        object.__setattr__(self, "points_per_axis", int(self.points_per_axis))
        if not (0.0 < float(self.rel_tol) < 1.0):
            raise ParameterError("rel_tol must lie in (0, 1)")
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        if int(self.seed) < 0:
            raise ParameterError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))


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


@lru_cache(maxsize=1)
def _pair_samples(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Shared (x, y) sample set: grid + ratio probes + random supplement."""
    lo, hi = cfg.domain
    n = cfg.points_per_axis
    axis = np.geomspace(lo, hi, n)
    gx, gy = np.meshgrid(axis, axis)
    parts_x = [gx.ravel()]
    parts_y = [gy.ravel()]
    # counterexample violations live at extreme ratios, so probe them
    # explicitly at ratios 10^k as far as the domain allows
    center = math.sqrt(lo * hi)
    probes = []
    for k in range(1, 13):
        ratio = 10.0 ** k
        if ratio > hi / lo:
            break
        a = center * math.sqrt(ratio)
        b = center / math.sqrt(ratio)
        probes.extend([(a, b), (b, a)])
    if probes:
        px, py = zip(*probes)
        parts_x.append(np.asarray(px, dtype=float))
        parts_y.append(np.asarray(py, dtype=float))
    rng = np.random.default_rng(cfg.seed)
    m = 10 * n * n
    llo, lhi = math.log(lo), math.log(hi)
    parts_x.append(np.exp(rng.uniform(llo, lhi, m)))
    parts_y.append(np.exp(rng.uniform(llo, lhi, m)))
    x = np.concatenate(parts_x)
    y = np.concatenate(parts_y)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@lru_cache(maxsize=1)
def _trace_samples(cfg: ScanConfig) -> np.ndarray:
    lo, hi = cfg.domain
    x = np.geomspace(lo, hi, cfg.points_per_axis ** 2)
    x.setflags(write=False)
    return x


def _lanes(v, x) -> np.ndarray:
    return np.broadcast_to(np.asarray(v, dtype=float), np.shape(x))


_FAILED = "evaluation failed"


def _failure_report(replay, lanes, exc: Exception) -> ScanReport:
    # the vector evaluation raised; replay sample by sample to locate the
    # first sample the evaluator rejects
    witness: tuple[float, ...] = ()
    for row in zip(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in lanes)):
        try:
            replay(*row)
        except Exception:
            witness = tuple(float(v) for v in row)
            break
    return ScanReport(False, math.inf, witness, int(np.size(lanes[0])),
                      f"{_FAILED}: {exc}")


def _finish(tol: float, viol, witness_arrays, samples: int | None = None) -> ScanReport:
    viol = np.asarray(viol, dtype=float).ravel()
    if viol.size == 0:
        return ScanReport(True, 0.0, (), 0)
    ranked = np.where(np.isfinite(viol), viol, np.inf)
    idx = int(np.argmax(ranked))
    worst = float(ranked[idx])
    detail = "" if math.isfinite(viol[idx]) else "non-finite evaluation at witness"
    witness = tuple(
        float(np.asarray(a, dtype=float).ravel()[idx]) for a in witness_arrays
    )
    count = int(viol.size) if samples is None else int(samples)
    return ScanReport(worst <= tol, worst, witness, count, detail)


def _scan(tol: float, lanes, measure, replay, samples: int | None = None) -> ScanReport:
    """The scan engine that every check plugs into.

    ``measure(*lanes)`` returns (violations, witness columns); the report
    is the worst violation against ``tol`` with its witness, counting
    ``samples`` (default: one per violation).  Numpy warnings are silenced
    throughout.  If ``measure`` raises, ``replay`` is called on one sample
    of ``lanes`` at a time and the first sample it rejects is the witness
    of a failed report.
    """
    with np.errstate(all="ignore"):
        try:
            viol, witness = measure(*lanes)
        except Exception as exc:
            return _failure_report(replay, lanes, exc)
        return _finish(tol, viol, witness, samples)


def check_meanness(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Scan min(x,y) <= F(x,y) <= max(x,y) over the configured samples.

    Violation is the signed relative excursion outside [min, max], scaled
    by max(x,y).  Witness layout: (x, y, F(x,y)).
    """
    cfg = cfg or DEFAULT_CONFIG

    def measure(x, y):
        v = _lanes(F.fn(x, y), x)
        viol = np.maximum(np.minimum(x, y) - v, v - np.maximum(x, y)) / np.maximum(x, y)
        return viol, (x, y, v)

    return _scan(cfg.rel_tol, _pair_samples(cfg), measure, F.fn)


def _invariance_terms(pair, x, y):
    """K, L, M(K, L), M(x, y) and |M(K, L) - M(x, y)| / M(x, y) at (x, y).

    K, L and M(x, y) come from one ``pair.evaluate`` call, a single
    kernel pass for the kernel constructions.
    """
    with np.errstate(all="ignore"):
        kv, lv, outer = (_lanes(v, x) for v in pair.evaluate(x, y))
        inner = _lanes(pair.target.fn(kv, lv), kv)
        residual = np.abs(inner - outer) / outer
    return kv, lv, inner, outer, residual


def check_invariance(pair, cfg: ScanConfig | None = None) -> ScanReport:
    """Scan |M(K(x,y), L(x,y)) - M(x,y)| / M(x,y) for a MeanPair.

    K, L and M(x, y) come from one ``pair.evaluate`` call, so a kernel
    pair runs its kernel once per lane.  Witness layout:
    (x, y, M(K,L), M(x,y)).
    """
    cfg = cfg or DEFAULT_CONFIG
    K, L, M = pair.K, pair.L, pair.target

    def measure(x, y):
        _, _, inner, outer, viol = _invariance_terms(pair, x, y)
        return viol, (x, y, inner, outer)

    return _scan(cfg.rel_tol, _pair_samples(cfg), measure,
                 lambda a, b: M.fn(K.fn(a, b), L.fn(a, b)))


def _trace_scan(F, cfg: ScanConfig | None, measure, skip_one: bool = False) -> ScanReport:
    # ``measure(x, f)`` sees the trace f(x) = F(x, 1) on the 1-D samples,
    # without those within 1e-9 of x = 1 when ``skip_one`` is set
    if not F.homogeneous:
        raise DomainError(f"{F.label}: trace checks require the homogeneous flag")
    cfg = cfg or DEFAULT_CONFIG
    x = _trace_samples(cfg)
    if skip_one:
        x = x[np.abs(x - 1.0) > 1e-9]
    return _scan(cfg.rel_tol, (x, np.ones_like(x)),
                 lambda x, one: measure(x, _lanes(F.fn(x, one), x)), F.fn, x.size)


def check_trace_meanness(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Check 0 < (f(x) - 1)/(x - 1) <= 1 for the trace f(x) = F(x, 1).

    Equivalent to the mean property for a homogeneous F.  The divided
    difference may touch 0 (min/max do), which the tolerance admits.
    Points within 1e-9 of x = 1 are excluded as numerically singular.
    Witness layout: (x, f(x)).
    """
    def measure(x, m):
        d = (m - 1.0) / (x - 1.0)
        return np.maximum(-d, d - 1.0), (x, m)

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
        return (m[:-1] - m[1:]) / np.abs(m[1:]), (x[:-1], x[1:], m[:-1], m[1:])

    return _trace_scan(F, cfg, measure)


# Flag scans: (fn, cfg, x, y, v) -> (violations, witness columns), where v
# is F(x, y), evaluated once by check_flags for all of them.

def _scan_symmetric(fn, cfg, x, y, v):
    v2 = _lanes(fn(y, x), x)
    return np.abs(v - v2) / np.maximum(x, y), (x, y, v, v2)


def _scan_homogeneous(fn, cfg, x, y, v):
    rng = np.random.default_rng(cfg.seed + 1)
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), x.size))
    # pin the documented scale factors in the leading lanes
    lam[:4] = (1e-3, 1.0, 7.5, 1e3)
    vs = _lanes(fn(lam * x, lam * y), x)
    return np.abs(vs - lam * v) / (lam * np.maximum(x, y)), (x, y, lam)


def _scan_monotone(fn, cfg, x, y, v):
    rng = np.random.default_rng(cfg.seed + 2)
    lhi = math.log(cfg.domain[1])
    x2 = np.exp(rng.uniform(np.log(x), lhi))
    y2 = np.exp(rng.uniform(np.log(y), lhi))
    v2 = _lanes(fn(x2, y2), x)
    return (v - v2) / np.abs(v2), (x, y, x2, y2)


def _scan_strict(fn, cfg, x, y, v):
    # strictness is only meaningful away from the diagonal; require the
    # margin to clear the tolerance at well-separated arguments, scaling
    # each side by its own envelope endpoint (a mean may legitimately hug
    # min or max at extreme ratios without touching it)
    keep = np.abs(np.log(x / y)) >= 0.1
    v = v[keep]
    mn = np.minimum(x, y)[keep]
    mx = np.maximum(x, y)[keep]
    margin = np.minimum((v - mn) / mn, (mx - v) / mx)
    return 2.0 * cfg.rel_tol - margin, (x[keep], y[keep], v)


_FLAG_SCANS = (
    ("symmetric", _scan_symmetric),
    ("homogeneous", _scan_homogeneous),
    ("monotone", _scan_monotone),
    ("strict", _scan_strict),
)


def check_flags(F, cfg: ScanConfig | None = None) -> ScanReport:
    """Validate each declared flag by sampling; report the first falsified.

    Flags are tested in declaration order: symmetric, homogeneous,
    monotone (by sampled pair dominance), strict (by clearance of the
    min/max envelope at separated arguments).  A failing report carries
    ``detail = "flag falsified: <name>"``.  Undeclared flags are skipped;
    a mean with no flags passes vacuously.  F(x, y) is evaluated once and
    shared by the flag scans.
    """
    cfg = cfg or DEFAULT_CONFIG
    x, y = _pair_samples(cfg)
    value = cache(lambda: _lanes(F.fn(x, y), x))
    sub_reports = []
    for name, scan in _FLAG_SCANS:
        if not getattr(F, name):
            continue
        rep = _scan(cfg.rel_tol, (x, y),
                    lambda x, y, scan=scan: scan(F.fn, cfg, x, y, value()), F.fn)
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
