#!/usr/bin/env python3
"""Build and run the layered serving benchmark.

One run (what BENCHMARK.json's "command" invokes):

    python3 servebench/run.py --workload spanner_flood --seed 1 --seconds 10 --trace 0

builds `servebench` (a cargo package of its own) in release mode, runs one
workload in its own process, checks that the metrics it printed are exactly
the ones BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and passes its output and exit code through. The
last line of standard output is the result JSON.

Steadiness check (ten seeds per workload, spread of each end-to-end metric):

    python3 servebench/run.py --steady [--workloads a,b] [--seeds 1-10] [--seconds 10]

Self-tests (each workload end to end at tiny size, oracle teeth, repeatable
counts):

    python3 servebench/run.py --self-test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
CHILD_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def cargo(*args):
    """Run cargo on the benchmark package; its chatter goes to stderr."""
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run the built binary once; returns (exit code, parsed result or None)."""
    binary = os.path.join(target_dir(), "release", "servebench")
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work-dir", os.path.join(HERE, "out"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"servebench: {workload} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    lines = out.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return proc.returncode or 4, None
    return proc.returncode, result


def expected_names(manifest, trace):
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in manifest[key]]


def single(args):
    manifest = load_manifest()
    if cargo("build", "--quiet") != 0:
        print("servebench: build failed", file=sys.stderr)
        return 2
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 4
    got = sorted(result.get("metrics", {}))
    want = sorted(expected_names(manifest, args.trace))
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"servebench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 5
    print(json.dumps(result))
    return code


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def steady(args):
    manifest = load_manifest()
    if cargo("build", "--quiet") != 0:
        return 2
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in manifest["workloads"]]
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            code, result = run_once(w, seed, seconds, 0, echo=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w} ({len(parse_seeds(args.seeds))} seeds, {seconds} s)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < bounds[name] / 3 else ("WIDE" if spread > bounds[name] else "over 1/3")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<16} median {med:>14.4f}  iqr/median {spread:7.4f}  bound {bounds[name]:.2f}  {flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return cargo("test")
    if args.steady:
        return steady(args)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
