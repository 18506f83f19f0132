"""Command-line front end: eval, check, complement, iterate, counterexample.

Conventions: bulk data (CSV) goes to stdout, diagnostics to stderr, and
``--json`` switches reports to a single JSON object on stdout.  Exit
status is 0 for success or a passing check, 1 for a failing check, and 2
for usage, parse, or parameter errors, a grid too large to allocate
among them.  The scan commands (check, complement) take ``--grid``,
``--tol`` and ``--seed``; seeds default to 0 and are echoed in every
report header so runs can be replayed.
Floating-point values print with 17 significant digits; non-finite
values appear as strings in JSON output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .complement import general_pair, xy_pair
from .errors import MeansError
from .iterate import iterate_pair
from .means import _integer, _read, _real
from .multivar import counterexample_ratio
from .projective import builtin_cone
from .specs import parse_mean, parse_pair
from .verify import (
    ScanConfig,
    _invariance_terms,
    _sized,
    check_flags,
    check_invariance,
    check_meanness,
    check_monotone_trace,
    check_trace_meanness,
)

__all__ = ["main"]


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _jsonify(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit(args, fields: dict, lines: list[str]) -> None:
    """Write a report: ``fields`` as one JSON object, or the text ``lines``."""
    if args.json:
        print(json.dumps(_jsonify(fields)))
    else:
        print("\n".join(lines))


def _emit_table(args, fields: dict, notes: list[str], columns: list[str],
                rows, summary: str | None = None) -> int:
    """Write a command's table as JSON, CSV or text; returns exit status 0.

    JSON is one object: ``fields``, then ``columns`` and ``rows``.  CSV
    puts the header row and the data on stdout and the ``notes`` lines
    and the ``summary`` on stderr.  Text prints everything on stdout,
    with a ``# columns:`` line and the summary as a comment.  An int
    cell prints as is, every other cell with 17 significant digits.
    """
    if args.json:
        _emit(args, {**fields, "columns": columns, "rows": rows}, [])
        return 0
    csv = args.emit == "csv"
    sep, aside = ("," if csv else " "), (sys.stderr if csv else sys.stdout)
    for line in notes:
        print(line, file=aside)
    print(sep.join(columns) if csv else "# columns: " + sep.join(columns))
    for row in rows:
        print(sep.join(str(v) if isinstance(v, int) else _fmt(v) for v in row))
    if summary is not None:
        print(summary if csv else "# " + summary, file=aside)
    return 0


def _grid(text: str) -> tuple[float, float, int]:
    lo, hi, n = text.split(":")
    return _real(lo), _real(hi), _integer(n)


def _scan_config(args) -> ScanConfig:
    lo, hi, n = _read(args.grid, _grid, lambda grid: True,
                      "--grid must look like lo:hi:n, got {!r}")
    return ScanConfig(domain=(lo, hi), points_per_axis=n,
                      rel_tol=args.tol, seed=args.seed)


def _cmd_eval(args) -> int:
    F = parse_mean(args.mean)
    value = F(args.x, args.y)
    _emit(args, {"mean": args.mean, "x": args.x, "y": args.y, "value": value},
          [_fmt(value)])
    return 0


# --what -> (check, the option naming its subject, that option's parser)
_CHECKS = {
    "mean": (check_meanness, "mean", parse_mean),
    "trace": (check_trace_meanness, "mean", parse_mean),
    "monotone": (check_monotone_trace, "mean", parse_mean),
    "invariance": (check_invariance, "pair", parse_pair),
    "flags": (check_flags, "mean", parse_mean),
}


def _cmd_check(args) -> int:
    cfg = _scan_config(args)
    check, arg, parse = _CHECKS[args.what]
    subject = getattr(args, arg)
    if not subject:
        print(f"error: --what {args.what} requires --{arg}", file=sys.stderr)
        return 2
    report = check(parse(subject), cfg)
    fields = {"check": args.what, "subject": subject, **report.to_dict(),
              "seed": cfg.seed, "tol": cfg.rel_tol, "grid": args.grid}
    witness = ",".join(_fmt(w) for w in report.witness)
    line = (f"{'pass' if report.passed else 'FAIL'} "
            f"worst_violation={_fmt(report.worst_violation)} "
            f"witness={witness} samples={report.samples_checked}")
    if report.detail:
        line += f" detail={report.detail!r}"
    _emit(args, fields, [f"# check={args.what} subject={subject} seed={cfg.seed} "
                         f"tol={_fmt(cfg.rel_tol)} grid={args.grid}", line])
    return 0 if report.passed else 1


_PAIR_COLUMNS = ["x", "y", "K", "L", "M_of_KL", "M_of_xy", "residual"]


@_sized
def _table_grid(cfg: ScanConfig, n: int):
    # the n x n log grid over the domain, raveled; too large to allocate
    # raises ParameterError, as a scan's sample set does
    axis = np.geomspace(*cfg.domain, n)
    gx, gy = np.meshgrid(axis, axis)
    return gx.ravel(), gy.ravel()


def _cmd_complement(args) -> int:
    cfg = _scan_config(args)
    M = parse_mean(args.mean)
    have_cd = args.c is not None or args.d is not None
    if have_cd and args.cone is not None:
        print("error: --c/--d and --cone are mutually exclusive", file=sys.stderr)
        return 2
    if (args.c is None) != (args.d is None):
        print("error: --c and --d must be given together", file=sys.stderr)
        return 2
    if have_cd:
        C = parse_mean(args.c)
        D = parse_mean(args.d)
        pair = general_pair(M, C, D, args.t)
        description = (f"K = C^t*M/M(C^t,D^t), L = D^t*M/M(C^t,D^t); "
                       f"M={M.label}, C={C.label}, D={D.label}, t={args.t!r}")
    else:
        cone = builtin_cone(args.cone or "full")
        pair = xy_pair(M, args.t, cone)
        description = (f"K = P^t*M/M(x^t,y^t) with P selecting x on "
                       f"{cone.name!r}, L on its complement; "
                       f"M={M.label}, t={args.t!r}")
    xs, ys = _table_grid(cfg, cfg.points_per_axis if args.emit == "csv" else 5)
    rows = np.column_stack([xs, ys, *_invariance_terms(pair, xs, ys)])
    fields = {"pair_spec": pair.spec, "description": description,
              "K": pair.K.label, "L": pair.L.label, "target": pair.target.label,
              "t": pair.t, "seed": cfg.seed, "grid": args.grid}
    header = (f"# complement pair={pair.spec or '<no spec>'} seed={cfg.seed} "
              f"grid={args.grid}")
    return _emit_table(args, fields, [header, f"# {description}"],
                       _PAIR_COLUMNS, rows.tolist())


def _cmd_iterate(args) -> int:
    pair = parse_pair(args.pair)
    trace = iterate_pair(pair, args.x0, args.y0,
                         rel_stop=args.rel_stop, max_iter=args.max_iter)
    xs = trace.iterates[:, 0]
    ys = trace.iterates[:, 1]
    with np.errstate(all="ignore"):
        values = np.asarray(pair.target.fn(xs, ys), dtype=float)
    fields = {"pair": args.pair, "converged": trace.converged,
              "iterations": trace.iterations, "limit": trace.limit,
              "final_gap": trace.final_gap, "gap_monotone": trace.gap_monotone}
    header = f"# iterate pair={args.pair} x0={_fmt(args.x0)} y0={_fmt(args.y0)}"
    summary = (f"converged={str(trace.converged).lower()} "
               f"iterations={trace.iterations} limit={_fmt(trace.limit)} "
               f"final_gap={_fmt(trace.final_gap)}")
    rows = list(zip(range(len(xs)), xs.tolist(), ys.tolist(),
                    trace.gaps.tolist(), values.tolist()))
    return _emit_table(args, fields, [header], ["n", "x", "y", "gap", "M_of_xy"],
                       rows, summary)


def _cmd_counterexample(args) -> int:
    ratio = counterexample_ratio(args.n, args.t, args.x)
    limit = float(args.n - 1)
    _emit(args, {"n": args.n, "t": args.t, "x": args.x, "ratio": ratio, "limit": limit},
          [f"ratio={_fmt(ratio)}", f"limit={_fmt(limit)}"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    # scan flags, only for the commands that sample a grid
    scan = argparse.ArgumentParser(add_help=False, parents=[common])
    scan.add_argument("--grid", default="1e-6:1e6:64", metavar="LO:HI:N",
                      help="scan domain and grid resolution (default %(default)s)")
    scan.add_argument("--tol", type=float, default=1e-11,
                      help="relative tolerance for checks (default %(default)g)")
    scan.add_argument("--seed", type=int, default=0,
                      help="seed for random sample supplements (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="invmeans",
        description="Construct and verify complementary mean pairs solving "
                    "M(K, L) = M.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a mean expression at one point")
    p.add_argument("--mean", required=True, help="mean expression")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", parents=[scan],
                       help="run a verification scan")
    p.add_argument("--what", required=True,
                   choices=list(_CHECKS))
    p.add_argument("--mean", help="mean expression (all checks except invariance)")
    p.add_argument("--pair", help="pair expression (invariance check)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("complement", parents=[scan],
                       help="build a complementary pair and tabulate it")
    p.add_argument("--mean", required=True, help="target mean expression")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c", help="first component mean (with --d)")
    p.add_argument("--d", help="second component mean (with --c)")
    p.add_argument("--cone", help="selection set name (without --c/--d; "
                                  "default full)")
    p.add_argument("--emit", choices=["table", "csv"], default="table")
    p.set_defaults(handler=_cmd_complement)

    p = sub.add_parser("iterate", parents=[common],
                       help="iterate a pair to its invariant-mean limit")
    p.add_argument("--pair", required=True, help="pair expression")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--rel-stop", type=float, default=1e-14)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--emit", choices=["table", "csv"], default="table")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("counterexample", parents=[common],
                       help="escape ratio of the n-variable construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(handler=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (MeansError, OverflowError, MemoryError) as exc:
        # MemoryError: a complement table whose grid fits but whose
        # columns do not
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
