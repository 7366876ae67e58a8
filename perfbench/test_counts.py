#!/usr/bin/env python3
"""The benchmark's own test: counts repeat exactly.

    python3 perfbench/test_counts.py [--seconds 4] [--workload NAME ...]

Run from the repository root. For each workload it runs the traced mode
twice on one seed and once on another, at a short length, and asserts:

  * every run is correct, and prints exactly the per-layer metrics that
    BENCHMARK.json lists;
  * every named count, ratio and ratio base is identical across the two
    runs on one seed, and so are the generated inputs;
  * the second seed changes the inputs (the svc request stream, the
    rx_array mismatch draw, the mixer sweep grid).

Timings and scheduling observables (runtime.pool.tasks_stolen) are not
compared. Exits nonzero on the first failed assertion.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_mixer", "gen_array_op", "svc_daemon", "svc_cluster")

# Counts and ratios (with their bases) that depend on the seed alone.
EXACT = (
    "spice.newton.iterations", "spice.lu.analyze", "spice.lu.refactor",
    "spice.lu.fallback", "spice.lu.refactor_ratio", "spice.op.gmin_steps",
    "spice.op.source_steps", "spice.dev.evaluated", "spice.dev.bypassed",
    "spice.dev.bypass_ratio", "spice.tran.steps_attempted", "spice.tran.reject_ratio",
    "lptv.lu.analyze", "runtime.parallel_for.chunks", "mathx.lu_nnz", "svc.requests",
    "svc.cache.lookups", "svc.cache.hit_ratio", "svc.jobs.deduped", "svc.jobs.failed",
    "svc.router.requests", "svc.router.cache_hit_ratio", "svc.router.replays",
)


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, f"{workload} seed {seed}: exit {proc.returncode}"
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload} seed {seed}: {result}"
    report = ROOT / ".bench_build" / "out" / f"{workload}-seed{seed}-traced.report.json"
    digest = json.loads(report.read_text())["config"]["input_digest"]
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def main():
    ap = argparse.ArgumentParser(description="counts repeat exactly")
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}

    for workload in args.workload:
        a, digest_a = traced_run(workload, 1, args.seconds)
        b, digest_b = traced_run(workload, 1, args.seconds)
        _, digest_c = traced_run(workload, 2, args.seconds)
        assert set(a) == per_layer, f"{workload}: metric set differs from BENCHMARK.json"
        differ = [k for k in EXACT if a[k] != b[k]]
        assert not differ, f"{workload}: counts differ on one seed: " + ", ".join(
            f"{k} {a[k]} vs {b[k]}" for k in differ)
        assert digest_a == digest_b, f"{workload}: inputs differ on one seed"
        assert digest_a != digest_c, f"{workload}: a second seed left the inputs unchanged"
        print(f"ok {workload}: {sum(1 for k in EXACT if a[k])} nonzero counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
