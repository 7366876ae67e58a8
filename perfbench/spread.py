#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [NAME ...] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]

Run from the repository root. For every workload it runs
`perfbench/run.py --workload NAME --seed N --seconds S --trace T` once per
seed, in order, and prints for each metric the median of the runs and the
spread: (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4). --seconds defaults to BENCHMARK.json's
run_seconds. With --out the runs' values, medians and spreads are written
there as JSON (the layout of baseline.json's end_to_end section). Exits
nonzero when a run fails or prints no result.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed}: {result}")
    return result, wall_s


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {}
    for workload in args.workload:
        runs = [run(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        names = list(runs[0][0]["metrics"])
        walls = [round(w, 1) for _, w in runs]
        out[workload] = {"attempted": [r["attempted"] for r, _ in runs], "run_wall_s": walls,
                         "metrics": {}}
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"run wall {min(walls)}-{max(walls)} s", flush=True)
        for name in names:
            s = summary([r["metrics"][name]["value"] for r, _ in runs])
            s["unit"] = runs[0][0]["metrics"][name]["unit"]
            out[workload]["metrics"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OVER BOUND" if s["spread"] > bound else (
                    "  over a third of bound" if s["spread"] > bound / 3 else "")
            print(f"  {name:16s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
