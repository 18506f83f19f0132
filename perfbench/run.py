"""invmeans benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package under test is ``src/invmeans``
of that checkout and nothing else.  ``--trace 0`` prints the end-to-end
metrics (set-up time, throughput, latency median and 90th percentile, peak
RSS), ``--trace 1`` the per-layer metrics of a traced run.  Every op's
output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
(``record {...}``) holds the environment, failed_frac and the report
digest.  Workloads are described in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "iterate", "cli", "bigscan")
SETUP_PAUSES = 7  # set-up-only workers run in pauses of the measured one, one more after it
DEADLINE_S = 170
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _deadline(signum, frame):
    raise BenchError(f"no result within {DEADLINE_S} s")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "invmeans").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(root: Path, env: dict, args, extra=(), on_pause=None) -> tuple[float, str]:
    """Start a worker; returns (seconds from start to READY, rest of its stdout).

    Each ``PAUSE`` line of the worker runs ``on_pause`` while the worker waits.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter_ns()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=root)
    try:
        ready = proc.stdout.readline()
        setup_s = (perf_counter_ns() - t0) / 1e9
        rest = []
        for line in iter(proc.stdout.readline, ""):
            if line == "PAUSE\n" and on_pause is not None:
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                rest.append(line)
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with {code} (ready line {ready!r})")
    return setup_s, "".join(rest)


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "invmeans" / "__init__.py").is_file():
        raise BenchError(f"{root} has no src/invmeans to benchmark")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    extra = ["--inject-fault"] if args.inject_fault else []
    # The machine's speed drifts over seconds, so set-up is sampled all
    # through the measured run rather than in one burst.
    setups = []

    def setup_only():
        setups.append(spawn(root, env, args, ["--setup-only", *extra])[0])

    if args.trace:
        setup_s, out = spawn(root, env, args, extra)
    else:
        setup_s, out = spawn(root, env, args, ["--pauses", str(SETUP_PAUSES), *extra],
                             on_pause=setup_only)
        setup_only()
    setups.insert(0, setup_s)
    res = json.loads(out.strip().splitlines()[-1])
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(root), "src_sha256": src_digest(root),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": res["numpy"], "ops": attempted, "failed_frac": failed / attempted,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
        record["traced_ops"] = res["traced_ops"]
        counts = {}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        record.update(setup_samples=setups, digest=res["digest"],
                      digest_ops=res["digest_ops"], lanes_per_op=res["lanes_per_op"])
        counts = dict.fromkeys(metrics, attempted)
        counts["setup_s"] = len(setups)
        counts["peak_rss_mb"] = 1
    for name, m in metrics.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{n}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} (n={attempted})")
    print("record " + json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-fault", action="store_true",
                    help="mix deliberately wrong cases into the ops (self-test)")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
