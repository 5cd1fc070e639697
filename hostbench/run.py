#!/usr/bin/env python3
"""Build and run the host-performance benchmark from the repository root.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --self-test

Builds hostbench/bench.exe from source with dune (release profile, own
build directory), then runs it with the arguments given. Environment
knobs that change the measured program (translation workers, chaining,
fault injection, GC parameters) are removed first, so every run measures
the configuration the benchmark pins. The last line of stdout is the
benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = "_hostbench_build"
TARGET = "./hostbench/bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
PINNED_AWAY = (
    "GHOSTBUSTERS_WORKERS",
    "GHOSTBUSTERS_NO_CHAIN",
    "GHOSTBUSTERS_INJECT",
    "GHOSTBUSTERS_INJECT_SEED",
    "OCAMLRUNPARAM",
)


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", "hostbench/dune"):
        if not os.path.exists(needed):
            fail("run from the repository root: %s not found" % needed)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_AWAY}
    env["DUNE_CACHE"] = "disabled"
    build = ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, TARGET]
    try:
        # dune's own output goes to stderr: stdout carries only the result
        done = subprocess.run(build, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)
    exe = os.path.join(BUILD_DIR, "default", "hostbench", "bench.exe")
    try:
        done = subprocess.run([exe] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark did not finish: %s" % e)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
