#!/usr/bin/env python3
"""Builds and runs the Eden transput benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles the repository's src/ from source, optimised) under
.bench_build/ -- or under $CARGO_TARGET_DIR when that names a directory
inside the checkout -- then runs the benchmark binary. Build output goes to
standard error; the last line of standard output is the binary's JSON
result. With --trace 1 the spans of the traced run are written to
<build dir>/spans/<workload>-seed<N>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
# Configure + build + run stay under the 900 s a first run in a checkout may take.
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    base = base.resolve()
    if ROOT not in base.parents:
        base = ROOT / ".bench_build"
    return base / "perfbench"


def run_step(command, timeout, env):
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, timeout=timeout, env=env)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"{command[0]} did not finish: {error}")
    if done.returncode != 0:
        fail(f"'{' '.join(map(str, command))}' exited with {done.returncode}")


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree under {ROOT}: the benchmark builds the program from source")
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    # The compiler's scratch files stay inside the checkout too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (bdir / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(HERE), "-B", str(bdir),
                  f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], CONFIGURE_TIMEOUT_S, env)
    run_step(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", str(jobs)],
             BUILD_TIMEOUT_S, env)
    return bdir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=83)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("none", "output", "count"), default="none",
                        help="corrupt what the oracle sees (its self-test)")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inject", args.inject]
    if args.trace == 1:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
