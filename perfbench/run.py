#!/usr/bin/env python3
"""Run one workload of the rfmix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness and the daemons from
source into .bench_build/ (Release, obs on) on first use, runs the
workload, and prints its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs (--trace 0) report the end-to-end metrics, traced runs the
per-layer ones; both print every metric by name with its unit on stderr.
Exits nonzero when the build fails, a workload fails, or an output check
fails. `--workload all` runs every workload in turn. See README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = Path(".bench_build") / "out"  # relative to ROOT: keeps socket paths short
WORKLOADS = ("paper_mixer", "gen_array_op", "svc_daemon", "svc_cluster")
BUILD_TYPE = "Release"


def run_timeout_s(seconds):
    """A run measures for `seconds`, plus set-up, the library workloads'
    minimum operation counts and the traced passes' fixed work."""
    return 120 + 2 * seconds


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the harness path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"rfmix sources not found under {ROOT}/src")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(BUILD), "--target", "rfmix_perf",
                  "-j", str(os.cpu_count() or 1)])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = build_log.read_text(errors="replace").splitlines()[-30:]
                log("build failed:\n" + "\n".join(tail))
                sys.exit(2)
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    if f"CMAKE_BUILD_TYPE:STRING={BUILD_TYPE}" not in cache or "RFMIX_SANITIZE" in cache:
        log(f"refusing a build tree that is not a plain {BUILD_TYPE} build: {BUILD}")
        sys.exit(2)
    return BUILD / "rfmix_perf"


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_workload(exe, workload, args, sha):
    """Run the harness in its own process group; whatever happens, kill
    the group afterwards so no daemon or worker outlives the run."""
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT), "--git-sha", sha]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout_s = run_timeout_s(args.seconds)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout_s:g} s")
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for sock in (ROOT / OUT).glob(f"{proc.pid}-*.sock"):
            sock.unlink(missing_ok=True)
        for workers in (ROOT / OUT).glob(f"{proc.pid}-*.workers"):
            shutil.rmtree(workers, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparseable result line: {lines[-1][:200]}")
        return None, proc.returncode or 1
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    sha = git_sha()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, code = run_workload(exe, workload, args, sha)
        if result is None:
            log(f"{workload}: failed without a result (exit {code})")
            return code or 1
        if code != 0 or not result.get("correct"):
            status = code or 1
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
