#!/usr/bin/env python3
"""Builds and runs the served-query benchmark for one workload.

Run from the repository root:

    python3 servebench/run.py --workload point_queries --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds strdb_server and the servebench
driver (Release) under .bench_build/servebench; later runs only rebuild
what changed.  Store directories and server logs of a run live under
.bench_build/runs and are removed afterwards; a traced run keeps its
spans in .bench_build/traces.  The last line of standard output is the
run's JSON result.  See servebench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("point_queries", "scan_filters", "read_write_mix")
# A run must end within 180 s; leave room for the build check and clean-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(root, "servebench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "servebench",
         "strdb_server_bin", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "server",
                                       "strdb_server_main.cc")):
        fail("run from the repository root: no strdb sources under ./src")
    build_dir = os.path.join(root, ".bench_build", "servebench")
    started = time.monotonic()
    build(root, build_dir)

    run_dir = os.path.join(root, ".bench_build", "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(build_dir, "strdb", "server", "strdb_server"),
        "--workdir", run_dir,
        "--trace-out",
        os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"),
    ]
    # Its own process group, so a timeout also stops the servers it spawned.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=max(10, RUN_TIMEOUT_S -
                                     (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 124
        print("servebench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
