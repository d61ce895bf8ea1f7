#!/usr/bin/env python3
"""Builds the D-Stampede benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload cluster_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The runtime and the harness are built
(Release) into .bench_build; later runs only re-check the build. The
measuring process is confined to one CPU, by default the highest one
this process may use (--cpu overrides). The last line of stdout is the
JSON result; build output goes to stderr. WORKLOADS.md describes the
workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cluster_small", "cluster_bulk", "device_edge")
# A run measures --seconds, plus set-up, warm-up and, when traced, the
# traced batches and raw probes (a few seconds in all). A run that takes
# this much longer than --seconds has hung.
RUN_ALLOWANCE_S = 120


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no runtime sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "dsbench",
              "-j", jobs]]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "dsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="CPU to confine the run to")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1] if args.cpu is None else args.cpu
    if cpu not in allowed:
        fail(f"cpu {cpu} is not in this process's set {allowed}")

    binary = build()
    sys.stdout.flush()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cpu", str(cpu)]
    timeout = args.seconds + RUN_ALLOWANCE_S
    with subprocess.Popen(command) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {timeout:.0f} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
