#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py selftest

Run from anywhere inside a checkout of the repository: the script builds
perfbench/main.exe with dune at the repository root (the first run
builds the libraries too) and hands its arguments to it. The last line
of standard output is the JSON result; build output goes to standard
error. Outside a full checkout it exits with code 2 and prints no
result.
"""

import glob
import os
import shutil
import subprocess
import sys


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return candidates[0] if candidates else None


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        print("perfbench: no repository sources next to perfbench/", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    os.chdir(root)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
