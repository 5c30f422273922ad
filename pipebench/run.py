#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs it.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package in
this directory, built against the repository's crates with a release
profile; `CARGO_TARGET_DIR` (default `pipebench/target`) holds the build.
Build output goes to standard error, so the benchmark's last line of
standard output is its JSON result. Any build failure, bad argument or
failed correctness check exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"pipebench: build failed ({build.returncode})")
    exe = os.path.join(target, "release", "pipebench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
