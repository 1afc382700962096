#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package next to this file; it depends on the
repository's `mafic-suite` crate by path, so it is built from the
checkout's sources (into `$CARGO_TARGET_DIR`, default `.bench_build/`).
The last line of standard output is the benchmark's JSON result. Build
output and progress go to standard error. See README.md beside this file.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    binary = os.path.join(target, "release", "mafic-perfbench")
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process: the benchmark is the only process left running.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
