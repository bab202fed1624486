#!/usr/bin/env python3
"""Build and run the host-cost benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (in the checkout's own
_build directory, with dune's shared cache off, so nothing is written
outside the checkout), then runs it with the same flags.  Its last line
of output is the JSON result.  Exits non-zero, printing no result, when
the build fails or the run does not finish in time.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed (dune exit %d)" % build.returncode, file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
