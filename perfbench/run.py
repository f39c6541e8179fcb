#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-fig1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (CMake, Release) into .bench_build/perfbench; later
runs only rebuild what changed. The build log goes to stderr, so the
last line on stdout is the binary's JSON result. The exit code is the
binary's: 0 when the run's outputs were correct, 1 when they were not,
2 on a usage or host error, 3 when the build or the run itself failed.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "vbl_perfbench"
# A run of up to 60 s plus set-up and the traced window stays far below this.
RUN_TIMEOUT_S = 170


def fail(message, code=3):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "service" / "ShardedSet.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "full source checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def git_sha():
    """HEAD of the checkout's own .git, if it has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources: names the build
    exactly even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lossy-every", type=int, default=0,
                        help="self-test: drop every N-th successful insert "
                             "(paper-fig1 only)")
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.lossy_every:
        command += ["--lossy-every", str(args.lossy_every)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
