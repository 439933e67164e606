#!/usr/bin/env python3
"""Builds and runs the MOHECO performance benchmark.

    python3 perfbench/run.py --workload <circuit-paper|oracle-dispatch|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that depends on the repository's crates by path; it
builds into $CARGO_TARGET_DIR (default .bench_build) and keeps its scratch
files under that directory. The last line of standard output is the JSON
result; the exit status is nonzero if the build fails or any check fails.
`--workload all` runs every workload in turn.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["circuit-paper", "oracle-dispatch"]

# The benchmark binary must finish well inside the three minutes a run is
# allowed; a hung run is killed and reported as a failure.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "moheco-perfbench")
    args = sys.argv[1:]
    runs = [args]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at : at + 1] == ["all"]:
        runs = [args[:at] + [name] + args[at + 1 :] for name in WORKLOADS]
    status = 0
    for run in runs:
        command = [
            binary,
            *run,
            "--pins",
            os.path.join(HERE, "pins.json"),
            "--work-dir",
            os.path.join(target, "perfbench-work"),
        ]
        try:
            code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"error: the benchmark ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
