#!/usr/bin/env python3
"""Self-test of the benchmark's correctness accounting.

    python3 perfbench/test_lossy.py

Runs paper-fig1 briefly three ways from the root of a source checkout:
  - as is: the run must pass with failed == 0;
  - through a set wrapper that silently undoes every 50th successful
    insert: the run must report a non-zero ops_failed_share, print
    "correct": false and exit non-zero;
  - limited to two CPUs: the run must stop with the HostTooSmall error
    before measuring anything.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
       "--workload", "paper-fig1", "--seed", "7", "--seconds", "1"]


def run(extra, prefix=()):
    done = subprocess.run([*prefix, *RUN, *extra], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    done, result = run([])
    check(done.returncode == 0 and result is not None and result["correct"]
          and result["failed"] == 0,
          "the real set passes with no failed ops")

    done, result = run(["--lossy-every", "50"])
    check(done.returncode != 0, "the lossy set exits non-zero")
    check(result is not None and not result["correct"]
          and result["failed"] > 0,
          "the lossy set reports failed ops")
    share = result["failed"] / result["attempted"]
    check(share > 0, f"ops_failed_share = {share:.3g} > 0")

    if shutil.which("taskset") and len(os.sched_getaffinity(0)) >= 2:
        cpus = ",".join(str(c) for c in sorted(os.sched_getaffinity(0))[:2])
        done, result = run([], prefix=("taskset", "-c", cpus))
        check(done.returncode != 0 and result is None
              and "HostTooSmall" in done.stderr,
              "two CPUs stop the run with HostTooSmall")
    print("all checks passed")


if __name__ == "__main__":
    main()
