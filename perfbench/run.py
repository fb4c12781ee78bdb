#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 \
        --trace 0 [--serve-read-qps Q] [--serve-write-qps Q]
    python3 perfbench/run.py --self-test

Run from the repository root. The C++ benchmark (perfbench/CMakeLists.txt)
is built in Release mode under $CARGO_TARGET_DIR (default .bench_build).
The benchmark's own lines go to stdout; the last stdout line is one JSON
object with "correct", "attempted", "failed" and "metrics", where metrics
are the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). The exit code is nonzero when a build step fails, the
run breaks off, or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    steps = []
    generated = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(nproc())])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """Digest of every file the benchmark builds from, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def result_line(run, spec, trace):
    """Maps the binary's JSON line onto the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    absent = set(run.get("absent_layers", []))
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = run["metrics"].get(name)
        if got is None:
            if name.split(".")[0] not in absent:
                fail(f"metric {name} was not measured")
            print(f"metric {name} 0 {unit} n=0 (layer not on this "
                  f"workload's path)")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            fail(f"metric {name} measured in {got['unit']}, "
                 f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": bool(run["correct"]), "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-read-qps", type=float, default=0)
    parser.add_argument("--serve-write-qps", type=float, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)

    if args.self_test:
        build_dir = build("perfbench_test")
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_test")]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    rate = {"serve_read": args.serve_read_qps,
            "serve_write": args.serve_write_qps}.get(args.workload, 0)

    build_dir = build("perfbench")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--rate", repr(rate),
               "--git-rev", git_revision(),
               "--source-digest", source_digest()]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}")
    try:
        run = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    result = result_line(run, spec, args.trace)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
