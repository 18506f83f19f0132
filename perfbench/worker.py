"""One workload in one fresh process, started by ``run.py``.

Prints ``READY`` once set-up is done, so the parent can time set-up from
process start, then (unless ``--setup-only``) one JSON line with the
measurement.  With ``--pauses N`` the measurement stops N times so the
parent can time set-ups in between.  One closed-loop caller, no threads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter_ns

import numpy as np

from layers import Probes
from spans import Tracer
from workloads import WORKLOADS

MIN_OPS = 100  # so op_p90_ms always has ten samples beyond it
MIN_TRACED_PAIRS = 20
DIGEST_OPS = 100  # reports of the first ops, whatever the run's speed
SLICES = 10
HARD_STOP_NS = 120 * 10 ** 9


def peak_rss_mb(children: bool) -> float:
    """ru_maxrss of this process, or of its largest child (the CLI processes)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _done(start: int, seconds: float, count: int, minimum: int) -> bool:
    elapsed = perf_counter_ns() - start
    return elapsed >= HARD_STOP_NS or (elapsed >= seconds * 1e9 and count >= minimum)


def throughput(latencies: list[int], cycle: int) -> float:
    """Ops per busy second: the median over up to ten consecutive slices of ops.

    Each slice is a whole number of the workload's op cycles, so every
    slice holds the same mix of ops.
    """
    n = len(latencies) // cycle
    per_cycle = np.reshape(latencies[: n * cycle], (n, cycle)).sum(axis=1)
    return statistics.median(len(part) * cycle / (part.sum() / 1e9)
                             for part in np.array_split(per_cycle, min(SLICES, n)))


def measure(wl, seconds: float, pauses: int = 0) -> dict:
    """Run ops for ``seconds``; ``pauses`` times, evenly spread, print
    ``PAUSE`` and wait for a line on stdin, with the clock stopped."""
    latencies, lanes = [], []
    failed = 0
    digest = hashlib.sha256()
    start = perf_counter_ns()
    paused = i = 0
    while not _done(start, seconds, i, MIN_OPS):
        if paused < pauses and perf_counter_ns() - start >= (
                (paused + 1) * seconds * 1e9 / (pauses + 1)):
            t0 = perf_counter_ns()
            print("PAUSE", flush=True)
            sys.stdin.readline()
            start += perf_counter_ns() - t0
            paused += 1
        out = wl.op(i)
        latencies.append(out.ns)
        failed += not out.ok
        if out.lanes is not None:
            lanes.append(out.lanes)
        if i < DIGEST_OPS:
            digest.update(out.bits)
        i += 1
    ms = [ns / 1e6 for ns in latencies]
    return {
        "attempted": i,
        "failed": failed,
        "metrics": {
            "ops_per_s": throughput(latencies, wl.cycle),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10)[-1],
            "peak_rss_mb": peak_rss_mb(getattr(wl, "rss_of_children", False)),
        },
        "digest": digest.hexdigest(),
        "digest_ops": min(i, DIGEST_OPS),
        "lanes_per_op": statistics.median(lanes) if lanes else 0,
    }


def measure_traced(wl, seconds: float) -> dict:
    """Per-layer probes, then untraced and traced ops in alternation."""
    probes = Probes().run()
    tracer = Tracer(count_lanes=True)
    plain, traced, lanes = [], [], []
    failed = attempted = 0
    start = perf_counter_ns()
    j = 0
    while not _done(start, seconds / 2, j, MIN_TRACED_PAIRS):
        for tr, sink in ((None, plain), (tracer, traced)):
            counted = tracer.count_ns
            out = wl.op(j, tr)
            sink.append(out.ns - (tracer.count_ns - counted))  # spans' cost only
            attempted += 1
            failed += not out.ok
            if out.lanes is not None:
                lanes.append(out.lanes)
        tracer.spans.clear()  # the loop keeps counts; spans come from the probes
        j += 1
    metrics = dict(probes.metrics)
    metrics["means.near_diag_lane_frac"] = (
        tracer.near_lanes / tracer.lanes if tracer.lanes else 0.0, "frac")
    metrics["verify.lanes_per_op"] = (statistics.median(lanes) if lanes else 0, "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    return {
        "attempted": attempted + probes.attempted,
        "failed": failed + probes.failed,
        "per_layer": metrics,
        "traced_ops": len(traced),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0)
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed, args.inject_fault)
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = measure_traced(wl, args.seconds)
    else:
        result = measure(wl, args.seconds, args.pauses)
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
