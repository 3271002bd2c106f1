#!/usr/bin/env python3
"""Builds the benchmark and the ser-cli daemon from source, then runs one
workload.

    python3 perfbench/run.py --workload <analyze|serve|harden> --seed N \
        --seconds S --trace <0|1>

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build). The last line of stdout is the run's JSON result;
build output goes to stderr. Scratch files and traced-run spans go to
perfbench/out/. Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *extra]
    # Cargo's own output goes to stderr, keeping stdout for the result.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    os.environ["CARGO_TARGET_DIR"] = target
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ("--bin", "ser-cli")),
        (os.path.join(HERE, "Cargo.toml"), ()),
    ):
        if not os.path.isfile(manifest) or not build(manifest, *extra):
            print(f"run.py: cannot build {manifest}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--ser-cli",
        os.path.join(release, "ser-cli"),
        "--work-dir",
        os.path.join(HERE, "out"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
