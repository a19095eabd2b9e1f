#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 zhtbench/check_teeth.py

Runs short replicated-write runs and asserts that the checks pass on a
clean run and fail when they should:

  (none)           clean run                                 -> correct
  wrong-expected   one lookup is checked against a corrupted
                   expected value                            -> incorrect
  lag-async        a last write's third copy is held 300 ms,
                   the replica comparison flushes first      -> correct
  skip-flush       the same lag, but the comparison skips
                   FlushAsyncReplication                     -> incorrect

Exits 0 when every case behaves as listed.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
CASES = [("", True), ("wrong-expected", False), ("lag-async", True),
         ("skip-flush", False)]


def run(teeth):
    command = [sys.executable, RUN, "--workload", "replicated-write",
               "--seed", "7", "--seconds", "1", "--trace", "0"]
    if teeth:
        command += ["--teeth", teeth]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-1])


def main():
    failures = 0
    for teeth, want in CASES:
        result = run(teeth)
        got = None if result is None else result["correct"]
        verdict = "ok" if got is want else "FAIL"
        failures += verdict != "ok"
        print(f"{verdict:4s} teeth={teeth or 'none':15s} correct={got} "
              f"(want {want})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
