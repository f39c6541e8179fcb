#!/usr/bin/env python3
"""Run the short-duration benchmark suite and merge the JSON outputs.

Produces one vbl-bench-v1 document from a fixed set of short bench
invocations (fig1_small_contended, hashset_scaling, micro_reclaim,
reclamation_cost, readonly_traversal, skiplist_crossover,
unrolled_crossover, latency_profile, service_throughput, micro_locks
and schedule_acceptance), stamped with
run context (git sha, host, core count, transparent-huge-page mode,
date). This is the suite the
CI bench-smoke job runs on every PR; tools/bench_compare.py gates the
result against the committed BENCH_baseline.json.

Usage:
  tools/run_benches.py --build-dir build --out BENCH_local.json
  tools/run_benches.py --build-dir build --out BENCH_baseline.json \
      --repeats 3 --duration-ms 80
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from datetime import datetime, timezone


def bench_invocations(args):
    """The suite: (binary, extra flags). Short windows — the gate
    detects gross regressions, not single-digit drift."""
    common = [
        "--duration-ms", str(args.duration_ms),
        "--warmup-ms", str(args.warmup_ms),
        "--repeats", str(args.repeats),
        "--seed", str(args.seed),
    ]
    return [
        ("fig1_small_contended", common + ["--threads", args.threads]),
        # The 64k+ ranges stay out of the smoke suite: their windows are
        # dominated by prefill/cache state and too noisy to gate on.
        # --phased adds the grow/shrink panel: the hash tables under
        # alternating fill/drain phases, the workload the index-swap
        # machinery exists for.
        ("hashset_scaling", common + ["--threads", args.threads,
                                      "--ranges", "1024,16384",
                                      "--latency",
                                      "--phased", "--phase-ms", "30",
                                      "--phases", "4",
                                      "--phased-range", "4096"]),
        # Reclamation primitives plus the pool-vs-bypass churn ratio;
        # gates the node-pool fast path against regressions.
        ("micro_reclaim", common + ["--churn-threads", args.threads,
                                    "--churn-ranges", "128,1024"]),
        # The 4-way reclamation comparison (leaky/EBR/VBR per lock-based
        # list, leaky/EBR/HP for harris-michael); gates the VBR read
        # protocol's overhead and EBR's announce cost end to end.
        ("reclamation_cost", common + ["--threads", args.threads]),
        # The §1 read-only claim (VBL vs Harris-Michael traversals).
        ("readonly_traversal", common + ["--threads", args.threads,
                                         "--ranges", "200,2000"]),
        # List vs skip-list crossover, small ranges only (see above).
        ("skiplist_crossover", common + ["--threads", args.threads,
                                         "--ranges", "200,2000"]),
        # Scan mixes: chunked vs flat vs lock-free rangeQuery. One
        # mixed and one scan-heavy panel at the 8k crossover range —
        # the chunk-window speedup this suite gates; the point-only
        # baseline panels already live in unrolled_crossover.
        ("range_scan", common + ["--threads", args.threads,
                                 "--ranges", "8192",
                                 "--scan-percents", "10,50",
                                 "--scan-lengths", "1024",
                                 "--structures",
                                 "vbl-chunk,vbl,harris-michael"]),
        # Unrolled chunk crossover: the flat-vs-chunked gate. 8192 is
        # the smallest range where the cache-line win must already
        # show; 64k stays out of the smoke suite like everywhere else.
        # --hotcold adds the adaptive-shapes panel: contended hot
        # region + read-mostly cold region, adaptive K vs static K.
        ("unrolled_crossover", common + ["--threads", args.threads,
                                         "--ranges", "128,8192",
                                         "--hotcold",
                                         "--hotcold-range", "4096",
                                         "--hot-keys", "64",
                                         "--hot-percent", "50"]),
        # Per-op tails under the Fig. 1 workload; its latency windows
        # are single repetitions, so no --warmup-ms/--repeats.
        ("latency_profile", ["--threads", args.threads,
                             "--duration-ms", str(args.duration_ms),
                             "--seed", str(args.seed),
                             "--algos", "vbl,lazy,harris-michael"]),
        # Sharded front-end smoke: uniform vs heavy skew, direct vs
        # batched, small session table so the point stays short.
        ("service_throughput", common + ["--threads", args.threads,
                                         "--backends", "vbl",
                                         "--theta", "0,0.99",
                                         "--modes", "direct,batch",
                                         "--shards", "4",
                                         "--sessions", "512",
                                         "--range", "4096"]),
        # Google-Benchmark binary: its own flag set; the uncontended
        # lock costs are stable enough to gate on.
        ("micro_locks", ["--benchmark_filter=uncontended/.*",
                         "--benchmark_min_time=0.05"]),
        # Deterministic schedule counts (Figs. 2-3 matrix): compared at
        # effectively zero tolerance, so any acceptance regression in
        # vbl/lazy trips the gate outright.
        ("schedule_acceptance", ["--max-episodes", "4000"]),
    ]


THP_ENABLED = "/sys/kernel/mm/transparent_hugepage/enabled"


def thp_mode(path=THP_ENABLED):
    """The kernel's transparent-huge-page mode, the bracketed word of its
    `enabled` file ("always [madvise] never" -> "madvise"), or "unknown"
    where that file cannot be read. The node pool's arenas sit on huge
    pages only under "always" or "madvise", so the mode changes what
    the pool-heavy benches measure."""
    try:
        with open(path, encoding="utf-8") as handle:
            match = re.search(r"\[(\w+)\]", handle.read())
    except OSError:
        return "unknown"
    return match.group(1) if match else "unknown"


def git_sha(repo_root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, check=True,
            capture_output=True, text=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory containing bench/")
    parser.add_argument("--out", required=True,
                        help="path for the merged JSON document")
    parser.add_argument("--threads", default="1,2",
                        help="thread counts passed to every bench")
    parser.add_argument("--duration-ms", type=int, default=120)
    parser.add_argument("--warmup-ms", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = os.path.join(args.build_dir, "bench")

    records = []
    contexts = {}
    for name, flags in bench_invocations(args):
        binary = os.path.join(bench_dir, name)
        if not os.path.exists(binary):
            print(f"error: bench binary not found: {binary}",
                  file=sys.stderr)
            return 2
        with tempfile.NamedTemporaryFile(suffix=".json",
                                         delete=False) as tmp:
            tmp_path = tmp.name
        try:
            cmd = [binary, "--json", tmp_path] + flags
            print("+ " + " ".join(cmd), flush=True)
            subprocess.run(cmd, check=True)
            try:
                with open(tmp_path, encoding="utf-8") as handle:
                    doc = json.load(handle)
            except json.JSONDecodeError as err:
                # A bench that dies mid-write leaves a truncated
                # document; name the bench and the parse position
                # instead of dumping a stacktrace.
                print(f"error: {name} emitted malformed JSON: {err}",
                      file=sys.stderr)
                return 1
            if not isinstance(doc, dict):
                print(f"error: {name} emitted a JSON "
                      f"{type(doc).__name__}, not an object",
                      file=sys.stderr)
                return 1
            if doc.get("schema") != "vbl-bench-v1":
                print(f"error: {name} produced unknown schema "
                      f"{doc.get('schema')!r}", file=sys.stderr)
                return 2
            records.extend(doc.get("records", []))
            contexts.update(doc.get("context", {}))
        finally:
            os.unlink(tmp_path)

    contexts.pop("bench_binary", None)
    contexts.update({
        "sha": git_sha(repo_root),
        "host": platform.node() or "unknown",
        "nproc": str(os.cpu_count() or 0),
        "thp": thp_mode(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "duration_ms": str(args.duration_ms),
        "repeats": str(args.repeats),
    })
    merged = {"schema": "vbl-bench-v1", "context": contexts,
              "records": records}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
