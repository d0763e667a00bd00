#!/usr/bin/env python3
"""Builds and runs the loopback-TCP consensus benchmark.

Run from the root of a checkout:

    python3 consbench/run.py --workload pig25-mem --seed 1 --seconds 20 --trace 0

The program is compiled from the checkout's own sources into
.bench_build/consbench (configured once, rebuilt incrementally). The last
line of standard output is the JSON result. Extra arguments after the
four above are passed to the benchmark binary (see README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "consbench")
BINARY = os.path.join(BUILD, "consbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "tcp_cluster.h")):
        log("consbench: program sources (src/) not found next to consbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr)
    return step.returncode == 0 and os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = parser.parse_known_args()

    if not build():
        log("consbench: build failed")
        return 1

    data_root = os.path.join(ROOT, ".bench_build", "consbench-data",
                             str(os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_build", "consbench-trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-root", data_root,
           "--trace-out", os.path.join(trace_dir, args.workload)] + extra
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("consbench: run exceeded %d s, killed" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
