#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim_cpu_bound --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20          # BENCHMARK.json's workloads, both modes
    python3 perfbench/run.py --selftest                  # the benchmark's own tests

The first call compiles the repository's libraries and the benchmark program
from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  The program's report is echoed, followed by a stamp
line (host, build, commit, seed, benchmark version) and, last, the JSON result
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones; traced runs
also write sampled spans as trace-event JSON under .bench_out/.  --out FILE
saves the stamped result for perfbench/compare.py.  GLOSSARY.md defines every
metric.  sim_io_parallel runs only when named: it is too unsteady on a shared
virtual machine to be one of BENCHMARK.json's workloads (GLOSSARY.md says why).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sim_cpu_bound", "sim_io_serial", "sim_io_parallel", "runtime_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configures once, then builds `target`; returns the executable's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT / 'src'}; run from a full checkout", 3)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
            fail(f"build failed: {err}", 3)
    return out / target


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp(build_info):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    stamp = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "git_sha": sha or "unknown",
        "git_dirty": (bool(status) if status is not None else "unknown"),
    }
    stamp.update(build_info)
    return stamp


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(trace):
    return [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def run_one(exe, workload, seed, seconds, trace, out_file):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans_dir / f"spans_{workload}_seed{seed}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")

    result_line = lines[-1]
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    missing = [m for m in expected_metrics(trace) if m not in result["metrics"]]
    if missing:
        fail(f"{workload}: metrics missing from the result: {missing}")

    build_info = {}
    for line in lines[:-1]:
        if line.startswith("build "):
            build_info = json.loads(line[len("build "):])
        print(line)
    stamp = host_stamp(build_info)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if out_file:
        with open(out_file, "w", encoding="utf-8") as f:
            json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                       "stamp": stamp, "result": result}, f, indent=1, sort_keys=True)
            f.write("\n")
    return result_line


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run BENCHMARK.json's workloads, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the stamped result to this JSON file")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        exe = build("sfsperf_selftest")
        sys.exit(subprocess.run([str(exe)], timeout=RUN_TIMEOUT_S).returncode)
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")
    if args.seconds < 1 or args.seconds > 60:
        parser.error("--seconds must be within 1..60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.monotonic()
    exe = build("sfsperf")
    print(f"build: {time.monotonic() - started:.1f} s", file=sys.stderr)
    if args.all:
        for workload in (w["name"] for w in benchmark_spec()["workloads"]):
            for trace in (0, 1):
                print(f"=== {workload} --trace {trace}")
                print(run_one(exe, workload, args.seed, args.seconds, trace, None))
        return
    print(run_one(exe, args.workload, args.seed, args.seconds, args.trace, args.out))


if __name__ == "__main__":
    main()
