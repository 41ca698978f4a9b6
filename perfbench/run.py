#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload xkg-specqp --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/CMakeLists.txt) into .bench_build/perfbench on
first use, runs the set-up phase several times (setup_s is the median of
their host-normalised times plus the serving process's own open and
warm-up), then the serving phase, and prints the serving phase's report.
The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. With --trace 1
the serving phase also replays the run under spans and reports the
per-layer metrics; the spans are written to
.bench_build/perfbench-traces/<workload>-seed<seed>.json.

Exits non-zero, without a result line, when the build or either phase fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("xkg-specqp", "twitter-trinit", "serving-zipf")
SETUP_REPEATS = 3
BUILD_TIMEOUT_S = 840
PHASE_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "specqp_perfbench")


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
         "specqp_perfbench"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_phase(args):
    result = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                            text=True, check=True, timeout=PHASE_TIMEOUT_S)
    return result.stdout


def setup_figures(output):
    """The set-up phase's (setup_s, setup_measured_s, host_factor)."""
    figures = {}
    for line in output.splitlines():
        key, _, value = line.partition(" ")
        figures[key] = value
    try:
        return tuple(float(figures[key]) for key in
                     ("setup_s", "setup_measured_s", "host_factor"))
    except KeyError as missing:
        raise RuntimeError(f"set-up phase printed no {missing}") from None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()

    data = os.path.join(ROOT, ".bench_build", "perfbench-data",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    try:
        setup = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            output = run_phase(["setup", "--workload", args.workload,
                                "--data", data])
            setup.append(setup_figures(output))
        print(output, end="")
        log("set-up phases, normalised s / measured s / host factor: " +
            ", ".join(f"{n:.3f} / {m:.3f} / {f:.3f}" for n, m, f in setup))

        serve = ["serve", "--workload", args.workload, "--data", data,
                 "--seed", str(args.seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace),
                 "--setup-s", repr(statistics.median(n for n, _, _ in setup))]
        if args.trace == 1:
            traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
            os.makedirs(traces, exist_ok=True)
            serve += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        output = run_phase(serve)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    lines = output.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("serving phase printed no result line")
    # The result line carries the metrics BENCHMARK.json names; the report
    # above it prints every metric the harness measures.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in listed}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


def stop(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps the running
    # phase, and through main's cleanup of the data directory.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, OSError, KeyError) as error:
        log(f"failed: {error}")
        sys.exit(1)
