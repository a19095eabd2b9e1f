#!/usr/bin/env python3
"""Builds the ZHT end-to-end benchmark from source and runs one workload.

    python3 zhtbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/zhtbench
(default .bench_build/zhtbench); traces and store files go to .bench_out.
The benchmark's JSON result is the last line of standard output; build logs
go to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the zhtbench target; True on success."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "zhtbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"zhtbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    parser.add_argument("--teeth", default="",
                        help="make the checks fail on purpose (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"zhtbench: ZHT sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "zhtbench")
    if not build(build_dir):
        print("zhtbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "zhtbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.abspath(args.out)]
    if args.teeth:
        command += ["--teeth", args.teeth]
    sys.stdout.flush()
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("zhtbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
