#!/usr/bin/env python3
"""The repository benchmark's command.

Builds udbench (this directory's CMake project, which compiles the
library from ../src) in Release mode under .bench_build/udbench, runs one
workload, and passes its output through:

    python3 udbench/run.py --workload online_small --seed 1 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds, the run length the
bounds there were validated at.

The last line of standard output is the result object. The metric names
it carries are checked against BENCHMARK.json before it is printed.

    python3 udbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "udbench")
WORKLOADS = ("online_small", "scan_tall", "online_churn")
# A hung server or client must not hang the caller.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(["cmake", "--build", BUILD, "--target", target,
                            "-j", jobs], stdout=sys.stderr) == 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_names(spec, trace):
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("udbench_test"):
            return 1
        return subprocess.call([os.path.join(BUILD, "udbench_test")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build("udbench"):
        log("build failed")
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "udbench-work",
                            str(os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_build", "udbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(BUILD, "udbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("udbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("udbench exited with code %d" % done.returncode)
        return done.returncode or 1

    result = json.loads(lines[-1])
    expected = metric_names(spec, args.trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        log("printed metrics do not match BENCHMARK.json: %s" % sorted(
            set(printed.items()) ^ set(expected.items())))
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
