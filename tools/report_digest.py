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

A report enters a digest as passed, worst violation, samples checked,
witness and detail.  Running this against two source trees and diffing
the output shows whether a change moved any report.
"""
from __future__ import annotations

import hashlib
import struct
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import invmeans as im  # noqa: E402
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


FAMILIES = {f.__name__: f for f in (sweep, bigscan, iterate, cli)}


def main() -> None:
    print(f"invmeans from {Path(im.__file__).parent}", file=sys.stderr)
    for name, family in FAMILIES.items():
        h = hashlib.sha256()
        count = family(h)
        print(f"{name} {count} {h.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
