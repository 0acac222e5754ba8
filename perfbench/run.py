#!/usr/bin/env python3
"""Builds the mcsm benchmark and runs one workload.

    python3 perfbench/run.py --workload <fullname|citeseer|serve> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build; build output goes to stderr. The last line
on stdout is the result JSON: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json when --trace is 0 and its
per-layer metrics when it is 1. The traced run also writes its spans to
<build dir>/spans/. The script exits non-zero, printing no result, when the
sources are missing, the build fails, the run fails or times out, or the
result lacks a metric BENCHMARK.json lists. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_build_step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no mcsm sources at {os.path.join(ROOT, 'src')}; nothing to build")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", out_dir, "-j", str(BUILD_JOBS)])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns why `line` is not a complete result, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        return f"metrics missing {missing}, not in BENCHMARK.json {extra}"
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            return f"{name} has unit {metrics[name]['unit']}, expected {unit}"
    return None


def run_workload(out_dir, args):
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    problem = check_result(lines[-1], args.trace)
    if problem:
        fail(f"{args.workload}: {problem}")
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-test")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    out_dir = build_dir()
    build(out_dir)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(out_dir, "perfbench_selftest")])
                 .returncode)
    run_workload(out_dir, args)


if __name__ == "__main__":
    main()
