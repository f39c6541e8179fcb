#!/usr/bin/env python3
"""List every registered set backend with its description.

Thin wrapper over `service_throughput --list-backends`, which dumps the
C++ registry (lists/Registry.cpp) as tab-separated rows; this renders
them as a table. The same names feed `--algos`/`--backends` flags and
ShardedSet::Options::Backend — unknown names there get "did you mean"
suggestions pointing back here.

Usage:
  tools/list_backends.py [--build-dir build] [--tsv]
  tools/list_backends.py --family hash      # split-ordered tables only
  tools/list_backends.py --family resize    # grow+shrink variants
  tools/list_backends.py --family vbr      # by reclaim domain
"""

import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory containing bench/")
    parser.add_argument("--tsv", action="store_true",
                        help="raw tab-separated output (scripting)")
    parser.add_argument("--family", default="",
                        help="only rows whose name or description "
                             "contains this substring (case-insensitive):"
                             " e.g. hash, chunk, resize, ebr, vbr, hp")
    args = parser.parse_args()

    binary = os.path.join(args.build_dir, "bench", "service_throughput")
    if not os.path.exists(binary):
        print(f"error: {binary} not found; build the repo first "
              f"(cmake --build {args.build_dir})", file=sys.stderr)
        return 2
    out = subprocess.run([binary, "--list-backends"], check=True,
                         capture_output=True, text=True).stdout
    rows = [line.split("\t") for line in out.splitlines() if line]
    if not rows:
        print("error: registry dump was empty", file=sys.stderr)
        return 2
    if args.family:
        # The describe strings carry structured substrate=/domain=/...
        # facets, so one substring filter covers name, family and
        # reclaim-domain queries alike.
        needle = args.family.lower()
        rows = [r for r in rows
                if any(needle in field.lower() for field in r)]
        if not rows:
            print(f"no backends match family '{args.family}'",
                  file=sys.stderr)
            return 1
    if args.tsv:
        sys.stdout.write("".join("\t".join(r) + "\n" for r in rows))
        return 0

    name_w = max(len(r[0]) for r in rows)
    dom_w = max(len(r[2]) for r in rows)
    print(f"{'name':<{name_w}}  {'keys':<{dom_w}}  description")
    print(f"{'-' * name_w}  {'-' * dom_w}  {'-' * 11}")
    for name, describe, domain in rows:
        print(f"{name:<{name_w}}  {domain:<{dom_w}}  {describe}")
    print(f"\n{len(rows)} backends registered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
