#!/usr/bin/env python3
"""Build the CECSan stack from source and run one benchmark workload.

    python3 perfbench/run.py --workload kernels|serve|fuzz --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the benchmark and the
cecsan_serve daemon with dune (shared build cache off, so nothing is
written outside the checkout), then runs perfbench/main.exe, whose last
stdout line is the result object.  Per-operation rows and spans go to
perfbench/out/.  Exits non-zero, printing no result, when the checkout
or the build is missing.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGETS = ["perfbench/main.exe", "bin/cecsan_serve.exe"]


def workload(args):
    for flag, value in zip(args, args[1:]):
        if flag == "--workload":
            return value
    return None


def main():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            sys.stderr.write(
                "perfbench: %s not found; run from the repository root\n" % need)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "-j", "2"]
            + TARGETS,
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        return build.returncode
    if workload(sys.argv[1:]) == "serve" and hasattr(os, "sched_setaffinity"):
        # the load generator, the daemon and the host-speed reference share
        # one vCPU, so the reference times the CPU the daemon runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [os.path.join("_build", "default", "perfbench", "main.exe")]
    cmd += sys.argv[1:]
    cmd += ["--serve-exe", os.path.join("_build", "default", "bin",
                                        "cecsan_serve.exe"),
            "--out", os.path.join("perfbench", "out")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
