#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

builds the Go benchmark in this directory into .bench_build/perfbench/
(Go's build cache included, so nothing is written outside the checkout),
runs it, and passes its output through: the last line of standard output
is the JSON result.

Steadiness report:

    python3 perfbench/run.py --steadiness 10

runs each workload once per seed 1..N and prints, per metric, the median,
quartiles, min/max and relative spread (interquartile range over median)
next to the metric's bound in BENCHMARK.json, flagging any metric whose
spread exceeds a third of its bound (WARN) or the bound itself (FAIL).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["search", "verify", "serve"]
RUN_TIMEOUT_S = 175


def go_env():
    """Environment that keeps the Go toolchain's caches inside the checkout."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": os.path.join("gopath", "pkg", "mod"),
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
        "HOME": "home",
    }
    for key, rel in dirs.items():
        env[key] = os.path.join(BUILD, rel)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=readonly", GOENV="off",
               GOPROXY="off", CGO_ENABLED="0")
    return env


def build(env):
    """Builds the benchmark; Go's build cache makes a rebuild of unchanged
    sources cheap."""
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def run_once(env, workload, seed, seconds, trace, commit_id, capture):
    args = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", os.path.join(BUILD, "work"),
            "--trace-out", os.path.join(BUILD, "traces", "%s-seed%d.json" % (workload, seed)),
            "--commit", commit_id]
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s seed %d exceeded %ds\n" % (workload, seed, RUN_TIMEOUT_S))
        return 1, None
    return proc.returncode, proc.stdout


def steadiness(env, runs, seconds, trace, commit_id):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    worst = 0
    for w in WORKLOADS:
        values, failed = {}, 0
        for seed in range(1, runs + 1):
            code, out = run_once(env, w, seed, seconds, trace, commit_id, capture=True)
            if code != 0:
                print("%s seed %d: exit %d" % (w, seed, code))
                worst = max(worst, 2)
                continue
            res = json.loads(out.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, res["correct"], res["attempted"], res["failed"]), flush=True)
        print("\n%s: %d runs, %d failed operations" % (w, runs, failed))
        print("%-30s %11s %11s %11s %11s %11s %7s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for name in sorted(values):
            xs = values[name]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound:
                if spread > bound:
                    flag, worst = "FAIL", max(worst, 2)
                elif spread > bound / 3:
                    flag, worst = "WARN", max(worst, 1)
            print("%-30s %11.5g %11.5g %11.5g %11.5g %11.5g %6.1f%% %6s %s" %
                  (name, med, q1, q3, min(xs), max(xs), 100 * spread,
                   "%.0f%%" % (100 * bound) if bound else "-", flag))
        print()
    return 1 if worst == 2 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N", help="run each workload on seeds 1..N and report spreads")
    args = ap.parse_args()
    if args.steadiness is None and args.workload is None:
        ap.error("--workload or --steadiness is required")

    env = go_env()
    if not build(env):
        return 2
    commit_id = commit()
    if args.steadiness is not None:
        return steadiness(env, args.steadiness, args.seconds, args.trace, commit_id)
    code, _ = run_once(env, args.workload, args.seed, args.seconds, args.trace, commit_id, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
