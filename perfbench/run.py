#!/usr/bin/env python3
"""Build and run the workbench benchmark.

    python3 perfbench/run.py --workload soak|analyse|explore|conform \
        --seed N --seconds S --trace 0|1

Builds perfbench/wb.exe from the sources of the checkout this script sits
in (dune, with its shared cache off so nothing is written outside the
checkout), then runs it from the checkout root with the same arguments.
The last line of its standard output is the JSON result.  Exits non-zero
without a result when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "wb.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        rc = run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/wb.exe"],
            BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    if rc != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
