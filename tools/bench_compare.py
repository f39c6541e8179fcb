#!/usr/bin/env python3
"""Gate a benchmark run against a committed baseline.

Matches candidate records to baseline records on the identity tuple
(bench, structure, threads, key_range, update_pct) and compares a
chosen field: throughput by default, or a latency percentile via
--field p50_ns / p99_ns / p999_ns (latency ratios are inverted —
baseline/candidate — so that > 1 is an improvement for every field,
and points where either side lacks the percentile are skipped with a
note rather than failing, since throughput-only sweeps emit null
latencies). Because the baseline and the candidate almost never run on
the same machine (committed baseline vs CI runner), raw ratios mix
machine speed with real regressions; instead the gate normalizes every
candidate/baseline ratio by the median ratio of its thread-count group
— a uniformly faster machine scales every point equally and cancels
out, and grouping by thread count also cancels core-topology
differences (a 2-core runner speeds up 2-thread points without moving
1-thread points).

The verdict is per structure, not per point: the geometric mean of a
structure's normalized ratios must stay above 1 - tolerance. Averaging
a structure's points cancels the per-window scheduling noise that
single short measurements carry, while the regressions this gate
exists for — an accidental O(n) walk, a lost fast path — slow a
structure across its whole sweep and move the geomean right through
the floor. Per-point ratios are printed for diagnosis.

Host facts that shift whole runs are printed, not gated: one `note:`
line for each context key in HOST_KEYS (core count, transparent-huge-
page mode) on which the two documents disagree.

Exit codes: 0 = pass, 1 = regression detected, 2 = usage/format error.

Usage:
  tools/bench_compare.py --baseline BENCH_baseline.json \
      --candidate BENCH_abc123.json --tolerance 0.25
"""

import argparse
import json
import sys
from statistics import geometric_mean, median

# --field name -> (json key, True when smaller raw values are better).
FIELDS = {
    "throughput": ("throughput_ops_s", False),
    "p50_ns": ("p50_latency_ns", True),
    "p99_ns": ("p99_latency_ns", True),
    "p999_ns": ("p999_latency_ns", True),
}

# Run-context keys whose difference the report names (see above).
HOST_KEYS = ("nproc", "thp")


def load_doc(path):
    """(context, records by identity) of a vbl-bench-v1 document, or
    None after printing why it is unusable."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return None
    if doc.get("schema") != "vbl-bench-v1":
        print(f"error: {path}: unknown schema {doc.get('schema')!r}",
              file=sys.stderr)
        return None
    records = {}
    for index, record in enumerate(doc.get("records", [])):
        # A malformed record used to surface as a bare KeyError with no
        # hint which file or record was at fault; name both instead.
        try:
            key = (record["bench"], record["structure"], record["threads"],
                   record["key_range"], record["update_pct"])
        except (KeyError, TypeError) as err:
            ident = (record.get("structure") or record.get("bench") or "?"
                     ) if isinstance(record, dict) else type(record).__name__
            print(f"error: {path}: record #{index} ({ident}) lacks "
                  f"identity field {err}", file=sys.stderr)
            return None
        records[key] = record
    context = doc.get("context")
    return (context if isinstance(context, dict) else {}), records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized shortfall (0.25 = a "
                        "point may be 25%% below the run's median "
                        "speed ratio)")
    parser.add_argument("--field", choices=sorted(FIELDS),
                        default="throughput",
                        help="record field to gate on (latency fields "
                        "compare baseline/candidate, so > 1 is always "
                        "an improvement)")
    args = parser.parse_args()
    field_key, smaller_is_better = FIELDS[args.field]

    base_doc = load_doc(args.baseline)
    cand_doc = load_doc(args.candidate)
    if base_doc is None or cand_doc is None:
        return 2
    (base_context, baseline), (cand_context, candidate) = base_doc, cand_doc
    for host_key in HOST_KEYS:
        base_host = base_context.get(host_key, "unrecorded")
        cand_host = cand_context.get(host_key, "unrecorded")
        if base_host != cand_host:
            print(f"note: context {host_key} differs: baseline "
                  f"{base_host}, candidate {cand_host}")
    if not baseline:
        print(f"error: {args.baseline} has no records", file=sys.stderr)
        return 2

    matched = []
    missing = []
    skipped = 0
    for key, base in baseline.items():
        cand = candidate.get(key)
        if cand is None:
            missing.append(key)
            continue
        base_val = base.get(field_key)
        cand_val = cand.get(field_key)
        if base_val is None or cand_val is None:
            # Latency percentiles are null on throughput-only sweeps;
            # a null is absent data, not a regression.
            skipped += 1
            continue
        base_val = float(base_val)
        cand_val = float(cand_val)
        if base_val <= 0 or cand_val <= 0:
            # A zero percentile means the histogram never saw a sample
            # (e.g. a mix with no ops of the profiled kind) — comparing
            # it would divide by zero; absent data, same as null.
            skipped += 1
            continue
        # Orient every ratio so > 1 means the candidate improved.
        ratio = (base_val / cand_val if smaller_is_better
                 else cand_val / base_val)
        matched.append((key, ratio, base_val, cand_val))

    if missing:
        for key in missing:
            print(f"error: candidate is missing baseline point {key}",
                  file=sys.stderr)
        return 2
    if skipped:
        print(f"note: skipped {skipped} point(s) without "
              f"{field_key} on both sides")
    if not matched:
        print("error: no comparable points", file=sys.stderr)
        return 2

    global_scale = median(ratio for _, ratio, _, _ in matched)
    if global_scale <= 0:
        print(f"error: nonsensical median speed ratio {global_scale}",
              file=sys.stderr)
        return 2
    groups = {}
    for key, ratio, _, _ in matched:
        groups.setdefault(key[2], []).append(ratio)
    # Small groups fall back to the global normalizer: a median over a
    # couple of points would let a regressed point normalize itself.
    scales = {threads: (median(ratios) if len(ratios) >= 3
                        else global_scale)
              for threads, ratios in groups.items()}
    print(f"{len(matched)} matched points on {field_key}; median ratio "
          f"= {global_scale:.3f}, per-thread-group " +
          ", ".join(f"{t}t={s:.3f}" for t, s in sorted(scales.items())))

    floor = 1.0 - args.tolerance
    structures = {}
    for key, ratio, base_val, cand_val in sorted(
            matched, key=lambda item: item[1]):
        normalized = ratio / scales[key[2]]
        print(f"  [point] {key}: base {base_val:.4g}, "
              f"cand {cand_val:.4g}, raw x{ratio:.3f}, "
              f"normalized x{normalized:.3f}")
        structures.setdefault((key[0], key[1]), []).append(normalized)

    failures = []
    for (bench, structure), ratios in sorted(structures.items()):
        score = geometric_mean(ratios)
        marker = "FAIL" if score < floor else "ok"
        print(f"[{marker}] {bench} / {structure}: normalized geomean "
              f"x{score:.3f} over {len(ratios)} point(s)")
        if score < floor:
            failures.append((bench, structure, score))

    if failures:
        print(f"\nbench gate FAILED: {len(failures)} structure(s) more "
              f"than {args.tolerance:.0%} below the run median",
              file=sys.stderr)
        return 1
    print(f"\nbench gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
