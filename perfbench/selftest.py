#!/usr/bin/env python3
"""Self-test of the benchmark's correctness oracle.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It runs fig2_readonly briefly three
times: clean, with a corrupted sink item, and with an invocation count off
by one (run.py --inject). The clean run must report failed == 0; each
injected run must report correct == false and failed > 0, so that a wrong
output or count can never pass as a measurement. Exits non-zero on any
mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(inject):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
               "fig2_readonly", "--seed", "83", "--seconds", "1", "--trace", "0",
               "--inject", inject]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"selftest: run.py --inject {inject} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    failures = []
    clean = run("none")
    if not clean["correct"] or clean["failed"] != 0:
        failures.append(f"clean run reported failures: {clean}")
    for inject in ("output", "count"):
        result = run(inject)
        if result["correct"] or result["failed"] == 0:
            failures.append(f"--inject {inject} was not caught: {result}")
        else:
            print(f"selftest: --inject {inject}: failed {result['failed']} of "
                  f"{result['attempted']}, as expected")
    for failure in failures:
        print(f"selftest: FAIL: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
