#!/usr/bin/env python3
"""Builds the benchmark harness from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The harness (perfbench/CMakeLists.txt) is built into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, relative to the repository root. The last line of standard
output is the harness's JSON result; build output goes to a log file in
the build directory. With --trace 1 the spans are written to
<build>/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_read", "serve_write", "ongoing_views", "paper_joins")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO_ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build(out):
    """Configures (once) and builds the harness; returns True on success."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log_path, BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", out, "-j", jobs], log_path,
                      BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the checker self-test instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        built = build(out)
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        log_path = os.path.join(out, "build.log")
        if os.path.exists(log_path):
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-30:]))
        sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
        return 1

    if args.selftest:
        cmd = [os.path.join(out, "checker_selftest")]
    else:
        cmd = [os.path.join(out, "perfbench_harness"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (cmd[0], RUN_TIMEOUT_S))
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
