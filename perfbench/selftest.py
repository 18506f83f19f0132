"""Self-test of the benchmark; exits 1 on the first broken promise.

    python3 perfbench/selftest.py [--workloads sweep cli]

For each workload, from the checkout root, a short run must:
  * with --trace 0, print every end-to-end metric of BENCHMARK.json with
    its unit, and report correct with no failed op;
  * with --trace 1, print every per-layer metric with its unit;
  * with --inject-fault (a Mean returning max + 1, a pair built from it,
    or a CLI case expecting the wrong exit code), report failed ops.
Finally run.py must exit non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's files.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfTestError(Exception):
    pass


def need(ok: bool, what) -> None:
    if not ok:
        raise SelfTestError(what)


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    need(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    need(set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys())
    need(isinstance(res["attempted"], int) and res["attempted"] >= 1, res["attempted"])
    return res


def expect_metrics(res: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    need(got == want, sorted(set(got.items()) ^ set(want.items())))
    for name, m in res["metrics"].items():
        need(isinstance(m["value"], (int, float)), (name, m))


def check_workload(spec: dict, workload: str) -> None:
    res = result(run(ROOT, workload, 0))
    expect_metrics(res, spec["end_to_end"])
    need(res["correct"] and res["failed"] == 0, res)
    res = result(run(ROOT, workload, 1))
    expect_metrics(res, spec["per_layer"])
    need(res["correct"] and res["failed"] == 0, res)
    res = result(run(ROOT, workload, 0, "--inject-fault"))
    need(not res["correct"] and res["failed"] > 0, res)


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        need(proc.returncode != 0, proc.returncode)
        need(not proc.stdout.strip(), proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    try:
        for workload in args.workloads:
            check_workload(spec, workload)
            print(f"selftest {workload}: ok", flush=True)
        check_bare_directory(spec)
        print("selftest bare directory: ok")
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
