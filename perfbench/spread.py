"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads sweep cli --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --write perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, from the
checkout root.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from ``BENCHMARK.json``;
a spread above a third of the bound is marked.  ``--write`` also makes
one traced run per workload and stores everything as the baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    record = json.loads(out[-2].split(" ", 1)[1])
    return json.loads(out[-1]), record


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1,
            "q3": q3, "spread": (q3 - q1) / statistics.median(values), "bound": bound}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--write", type=Path, help="store runs as the baseline JSON")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds, "records": [r for _, r in runs],
                 "correct": all(res["correct"] for res, _ in runs),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarize([res["metrics"][name]["value"] for res, _ in runs],
                          metric["bound"])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print(f"{workload:8s} {name:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {metric['bound']}{flag}", flush=True)
        if args.write:
            res, record = run_once(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            entry["per_layer_record"] = record
        baseline["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
