#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--windows 2]
                                    [--gap 60] [--seconds 25] [--first-seed 1]
                                    [--json out.json]

Runs each workload --runs times per time window, each run with its own
seed, through perfbench/run.py exactly as the benchmark command does.
Windows run one after the other, --gap seconds apart. For every window and
for all runs together it prints each metric's median and quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
the shift of the last window's median against the first, the host's
steal ticks during the window (from /proc/stat), and the share of failed
operations. Exits non-zero if a run fails, reports incorrect results, or
the failed share differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("serve_read", "serve_write", "ongoing_views", "paper_joins")


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10, help="runs per window")
    parser.add_argument("--windows", type=int, default=2)
    parser.add_argument("--gap", type=float, default=60, help="seconds between windows")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write all raw results here")
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]

    results = {w: [] for w in workloads}  # per workload: list of windows
    steal = []
    ok = True
    seed = args.first_seed
    for window in range(args.windows):
        if window > 0 and args.gap > 0:
            time.sleep(args.gap)
        started = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
        steal0 = steal_ticks()
        for w in workloads:
            runs = []
            for _ in range(args.runs):
                r = run_once(w, seed, args.seconds)
                seed += 1
                runs.append(r)
                if not r["correct"]:
                    ok = False
                    print("INCORRECT: %s seed %d" % (w, seed - 1))
            results[w].append(runs)
        steal.append({"window": window, "started": started,
                      "steal_ticks": steal_ticks() - steal0})
        print("window %d started %s: %d steal ticks" % (
            window, started, steal[-1]["steal_ticks"]), flush=True)

    for w in workloads:
        windows = results[w]
        all_runs = [r for runs in windows for r in runs]
        shares = {(r["failed"], r["attempted"]) for r in all_runs}
        fail_shares = {f / a for f, a in shares}
        print("\n== %s: %d runs, failed share %s" % (
            w, len(all_runs), sorted(fail_shares)))
        if len(fail_shares) != 1:
            ok = False
            print("   failed share differs between runs")
        print("   %-18s %-8s %12s %12s %12s %8s %8s" % (
            "metric", "window", "median", "q1", "q3", "spread", "shift"))
        for metric in all_runs[0]["metrics"]:
            unit = all_runs[0]["metrics"][metric]["unit"]
            first = None
            for i, runs in enumerate(windows + [all_runs]):
                values = [r["metrics"][metric]["value"] for r in runs]
                s = summary(values)
                label = "all" if i == len(windows) else str(i)
                if i == 0:
                    first = s["median"]
                shift = (s["median"] - first) / first if first else 0.0
                print("   %-18s %-8s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%  %s" % (
                    metric, label, s["median"], s["q1"], s["q3"],
                    100 * s["spread"], 100 * shift if label != "all" else 0.0, unit))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"results": results, "steal": steal}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
