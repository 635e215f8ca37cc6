#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 xbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds xbench/main.exe with dune (the
repository's libraries are compiled from this checkout), then runs it
with the given arguments; its last line of standard output is the
result object (see xbench/NOTES.md).  Build output goes to standard
error.  Exits non-zero, without a result, when the build fails.
"""
import glob
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "xbench", "main.exe")


def dune():
    """The dune command: from PATH, else through opam, else from an opam
    switch under the home directory."""
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return [found[0]] if found else ["dune"]


def main():
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ".", "./xbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"xbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("xbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
