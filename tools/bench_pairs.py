"""Benchmark the working tree against HEAD and write BENCH_<commit>.json.

    python3 tools/bench_pairs.py --workdir /tmp/bench --out BENCH_<commit>.json \\
        --first-seed 501

Run from the root of a git checkout.  Two fresh trees are unpacked under
``--workdir``: ``base`` holds the files of HEAD, and ``change`` the files
git tracks or would track in the working tree, as they are now.  Each
workload of ``BENCHMARK.json`` (the i-th, counting from 0) runs 10 pairs
on seeds ``first_seed + 100*i + k``: a pair runs ``perfbench/run.py
--trace 0`` of both trees on one seed for the benchmark's ``run_seconds``,
each from its own root, the base first on even pairs and the change first
on odd ones, because the second run of a pair can read differently.  Then
each tree runs ``--trace 1`` of the sweep workload once, on the next
hundred's seed, for its per-layer metrics.

The file, written once all runs are done, holds the raw runs and, per
workload and tree, the median and quartiles of each end-to-end metric, the
pairs in which the change was better, the relative change of the medians
and the base's quartile spread; further the per-layer metrics of the
traced runs, the base commit, the source digest of each tree, nproc, and
the python and numpy versions the runs reported.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def unpack(workdir: Path) -> dict[str, Path]:
    """Fresh ``base`` and ``change`` trees under workdir; returns their roots."""
    trees = {side: workdir / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "HEAD"))) as tar:
        tar.extractall(trees["base"])
    listed = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():
            dst = trees["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call; returns its record and metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    run = {
        "workload": workload, "seed": seed, "trace": trace,
        "src_sha256": record["src_sha256"], "nproc": record["nproc"],
        "python": record["python"], "numpy": record["numpy"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "units": {k: m["unit"] for k, m in result["metrics"].items()},
    }
    shown = "traced" if trace else ", ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
    print(f"{workload} seed {seed} {tree.name}: {shown}", flush=True)
    return run


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Quartiles per side and pairs won for each end-to-end metric."""
    out = {"pairs": len(pairs), "seeds": [p["base"]["seed"] for p in pairs],
           "failed": sum(p[s]["failed"] for p in pairs for s in SIDES), "metrics": {}}
    for name, sense in better.items():
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        base, change = _stats(vals["base"]), _stats(vals["change"])
        sign = 1.0 if sense == "higher" else -1.0
        out["metrics"][name] = {
            "unit": pairs[0]["base"]["units"][name], "better": sense,
            "base": base, "change": change,
            "change_better_pairs": sum(sign * (c - b) > 0 for b, c in
                                       zip(vals["base"], vals["change"])),
            "median_change_frac": change["median"] / base["median"] - 1.0,
            "base_quartile_spread": base["q3"] - base["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workdir", required=True, type=Path,
                    help="directory for the two unpacked trees (emptied first)")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--first-seed", required=True, type=int)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    trees = unpack(args.workdir)

    runs, e2e = [], {}
    for i, workload in enumerate(workloads):
        pairs = []
        for k in range(PAIRS):
            seed = args.first_seed + 100 * i + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(trees[side], workload, seed, seconds, 0) for side in order}
            pairs.append(pair)
            runs += [dict(pair[side], side=side, pair=f"{workload}:{seed}") for side in order]
        e2e[workload] = summarize(pairs, better)

    # the per-layer probes are the same for every workload
    trace_seed = args.first_seed + 100 * len(workloads)
    traced = {side: run_once(trees[side], "sweep", trace_seed, seconds, 1) for side in SIDES}
    runs += [dict(traced[side], side=side, pair=None) for side in SIDES]
    per_layer = {name: {"unit": traced["base"]["units"][name],
                        **{side: traced[side]["metrics"][name] for side in SIDES}}
                 for name in traced["base"]["metrics"]}

    last = runs[-1]
    bench = {
        "base_commit": _git("rev-parse", "HEAD").decode().strip(),
        "command": f"perfbench/run.py --seconds {seconds:g}",
        "trace_seed": trace_seed,
        **{f"{side}_src_sha256": traced[side]["src_sha256"] for side in SIDES},
        "nproc": last["nproc"], "python": last["python"], "numpy": last["numpy"],
        "end_to_end": e2e, "per_layer": per_layer, "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
