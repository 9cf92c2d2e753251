#!/usr/bin/env python3
"""Builds and runs the repository benchmark (one workload per process).

Usage, from the repository root:

    python3 perfbench/run.py --workload hot-join|cold-join|churn \
        --seed N --seconds S --trace 0|1

The benchmark program and the engine sources it compiles (src/) are built
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Build output goes to standard error. The program's standard output is
forwarded; its last line is the JSON result. The full report of every run
is written to <build root>/perfbench-results/<workload>-seed<N>-trace<T>.json
and the spans of a traced run to <build root>/perfbench-results/
<workload>-spans.jsonl (one file per workload, overwritten by each run).
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("hot-join", "cold-join", "churn")
# The program ends on its own well before this; the limit only guards
# against a hang.
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", src_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "xrbench"],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "xrbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return 2

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                               or ".bench_build")
    try:
        binary = build(here, os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    results = os.path.join(out_root, "perfbench-results")
    data_dir = os.path.join(out_root, "perfbench-data", str(os.getpid()))
    os.makedirs(results, exist_ok=True)
    os.makedirs(data_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--report", os.path.join(results, name + ".json"),
           "--spans", os.path.join(results, args.workload + "-spans.jsonl"),
           "--data-dir", data_dir]
    sys.stdout.flush()
    # A terminated wrapper still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
