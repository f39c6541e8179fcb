#!/usr/bin/env python3
"""Unit tests for the bench tooling (bench_compare, split_bench_domains,
run_benches) on crafted inputs.

Each tool is exercised as a subprocess, the way CI invokes it, so the
tests pin exit codes and diagnostics, not internals:

 - bench_compare --field p99_ns on records with zero or null latency
   percentiles must skip-with-note, not raise ZeroDivisionError or
   TypeError mid-compare;
 - bench_compare names each host context key (nproc, thp) on which
   baseline and candidate differ, without changing its verdict;
 - split_bench_domains and run_benches must fail with a named
   file/record diagnostic (exit 1) on malformed JSON instead of a
   stacktrace;
 - run_benches records the transparent-huge-page mode in the merged
   context (the one helper tested in-process is its parser).

Invoked from ctest as bench_tools_selftest.
"""

import importlib.util
import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def run_tool(name, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS_DIR, name)] + list(argv),
        capture_output=True, text=True)


def bench_doc(records, context=None):
    return {"schema": "vbl-bench-v1", "context": context or {},
            "records": records}


def load_run_benches():
    spec = importlib.util.spec_from_file_location(
        "run_benches", os.path.join(TOOLS_DIR, "run_benches.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_fake_bench(path, payload):
    """An executable that writes payload to the file after --json."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("#!/bin/sh\n"
                     "out=\"\"\n"
                     "while [ $# -gt 0 ]; do\n"
                     "  if [ \"$1\" = \"--json\" ]; then out=\"$2\"; "
                     "shift; fi\n"
                     "  shift\n"
                     "done\n"
                     f"printf '%s' '{payload}' > \"$out\"\n")
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)


def record(structure, threads, throughput, p99):
    return {
        "bench": "latency_profile", "structure": structure,
        "threads": threads, "key_range": 1024, "update_pct": 20,
        "throughput_ops_s": throughput, "p99_latency_ns": p99,
    }


class TempDocs(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(payload, str):
                handle.write(payload)
            else:
                json.dump(payload, handle)
        return path


class BenchCompareLatencyTest(TempDocs):
    def test_zero_and_null_latency_skip_with_note(self):
        # One comparable point, one null-latency point, one zero-latency
        # point: the gate must compare the first and skip the rest with
        # a note — the zero used to raise ZeroDivisionError in the
        # inverted baseline/candidate ratio.
        base = self.write("base.json", bench_doc([
            record("vbl", 1, 1e6, 800.0),
            record("lazy", 1, 1e6, None),
            record("harris-michael", 1, 1e6, 0.0),
        ]))
        cand = self.write("cand.json", bench_doc([
            record("vbl", 1, 1e6, 780.0),
            record("lazy", 1, 1e6, 900.0),
            record("harris-michael", 1, 1e6, 850.0),
        ]))
        result = run_tool("bench_compare.py", "--baseline", base,
                          "--candidate", cand, "--field", "p99_ns")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("skipped 2 point(s)", result.stdout)
        self.assertNotIn("Traceback", result.stderr)

    def test_zero_candidate_latency_skips(self):
        base = self.write("base.json", bench_doc([
            record("vbl", 1, 1e6, 800.0),
            record("lazy", 1, 1e6, 750.0),
        ]))
        cand = self.write("cand.json", bench_doc([
            record("vbl", 1, 1e6, 810.0),
            record("lazy", 1, 1e6, 0),
        ]))
        result = run_tool("bench_compare.py", "--baseline", base,
                          "--candidate", cand, "--field", "p99_ns")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("skipped 1 point(s)", result.stdout)

    def test_all_points_skipped_is_a_format_error(self):
        base = self.write("base.json",
                          bench_doc([record("vbl", 1, 1e6, None)]))
        cand = self.write("cand.json",
                          bench_doc([record("vbl", 1, 1e6, 700.0)]))
        result = run_tool("bench_compare.py", "--baseline", base,
                          "--candidate", cand, "--field", "p99_ns")
        self.assertEqual(result.returncode, 2)
        self.assertIn("no comparable points", result.stderr)


class BenchCompareContextTest(TempDocs):
    def compare(self, base_context, cand_context):
        points = [record("vbl", 1, 1e6, 800.0),
                  record("lazy", 1, 1e6, 750.0)]
        base = self.write("base.json", bench_doc(points, base_context))
        cand = self.write("cand.json", bench_doc(points, cand_context))
        return run_tool("bench_compare.py", "--baseline", base,
                        "--candidate", cand)

    def notes(self, result):
        return [line for line in result.stdout.splitlines()
                if line.startswith("note: context")]

    def test_each_differing_host_key_gets_one_note(self):
        result = self.compare({"nproc": "4", "thp": "madvise", "sha": "a"},
                              {"nproc": "2", "thp": "never", "sha": "b"})
        self.assertEqual(result.returncode, 0, result.stderr)
        notes = self.notes(result)
        self.assertEqual(len(notes), 2, result.stdout)
        self.assertIn("nproc", notes[0])
        self.assertIn("baseline 4, candidate 2", notes[0])
        self.assertIn("thp", notes[1])
        self.assertIn("baseline madvise, candidate never", notes[1])

    def test_matching_hosts_and_other_keys_get_no_note(self):
        result = self.compare({"nproc": "4", "thp": "madvise", "sha": "a"},
                              {"nproc": "4", "thp": "madvise", "sha": "b"})
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(self.notes(result), [])

    def test_unrecorded_key_is_named(self):
        result = self.compare({"nproc": "4"}, {"nproc": "4", "thp": "always"})
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(self.notes(result),
                         ["note: context thp differs: baseline unrecorded, "
                          "candidate always"])


class SplitBenchDomainsTest(TempDocs):
    def out_dir(self):
        return os.path.join(self.dir.name, "out")

    def test_malformed_json_named_exit_1(self):
        merged = self.write("merged.json", "{\"schema\": \"vbl-bench-")
        result = run_tool("split_bench_domains.py", "--merged", merged,
                          "--out-dir", self.out_dir())
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("merged.json", result.stderr)
        self.assertIn("malformed", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_non_object_record_named_exit_1(self):
        merged = self.write("merged.json", {
            "schema": "vbl-bench-v1",
            "records": [{"bench": "micro_reclaim",
                         "structure": "guard/vbr"}, "oops"],
        })
        result = run_tool("split_bench_domains.py", "--merged", merged,
                          "--out-dir", self.out_dir())
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("record #1", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_well_formed_doc_splits(self):
        merged = self.write("merged.json", {
            "schema": "vbl-bench-v1", "context": {},
            "records": [
                {"bench": "micro_reclaim", "structure": "guard/vbr"},
                {"bench": "micro_reclaim", "structure": "vbl-leaky"},
            ],
        })
        result = run_tool("split_bench_domains.py", "--merged", merged,
                          "--out-dir", self.out_dir())
        self.assertEqual(result.returncode, 0, result.stderr)
        for domain in ("vbr", "leaky"):
            path = os.path.join(self.out_dir(), f"BENCH_{domain}.json")
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            self.assertEqual(len(doc["records"]), 1)

    def test_domain_rows_split_by_their_suffix(self):
        merged = self.write("merged.json", {
            "schema": "vbl-bench-v1", "context": {},
            "records": [
                {"bench": "micro_reclaim", "structure": f"domain/{name}"}
                for name in ("epoch", "vbr", "hp")
            ],
        })
        result = run_tool("split_bench_domains.py", "--merged", merged,
                          "--out-dir", self.out_dir())
        self.assertEqual(result.returncode, 0, result.stderr)
        for domain, name in (("ebr", "epoch"), ("vbr", "vbr"),
                             ("hp", "hp")):
            path = os.path.join(self.out_dir(), f"BENCH_{domain}.json")
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            self.assertEqual([r["structure"] for r in doc["records"]],
                             [f"domain/{name}"])


class RunBenchesMalformedTest(TempDocs):
    def test_bench_emitting_malformed_json_named_exit_1(self):
        # Fake build dir whose first suite binary writes a truncated
        # document, as a bench dying mid-write would.
        bench_dir = os.path.join(self.dir.name, "bench")
        os.makedirs(bench_dir)
        write_fake_bench(os.path.join(bench_dir, "fig1_small_contended"),
                         '{"schema": "vbl-be')
        out = os.path.join(self.dir.name, "merged.json")
        result = run_tool("run_benches.py", "--build-dir", self.dir.name,
                          "--out", out)
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("fig1_small_contended", result.stderr)
        self.assertIn("malformed", result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertFalse(os.path.exists(out))


class RunBenchesThpTest(TempDocs):
    def test_merged_context_records_thp_mode(self):
        run_benches = load_run_benches()
        bench_dir = os.path.join(self.dir.name, "bench")
        os.makedirs(bench_dir)
        args = run_benches.argparse.Namespace(
            duration_ms=1, warmup_ms=1, repeats=1, seed=1, threads="1")
        for name, _ in run_benches.bench_invocations(args):
            write_fake_bench(os.path.join(bench_dir, name),
                             json.dumps(bench_doc([])))
        out = os.path.join(self.dir.name, "merged.json")
        result = run_tool("run_benches.py", "--build-dir", self.dir.name,
                          "--out", out)
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out, encoding="utf-8") as handle:
            context = json.load(handle)["context"]
        self.assertEqual(context["thp"], run_benches.thp_mode())

    def test_thp_mode_reads_the_bracketed_word(self):
        thp_mode = load_run_benches().thp_mode
        for text, mode in (("always [madvise] never\n", "madvise"),
                           ("[always] madvise never\n", "always"),
                           ("always madvise [never]\n", "never"),
                           ("always madvise never\n", "unknown")):
            path = self.write("enabled", text)
            self.assertEqual(thp_mode(path), mode, text)
        self.assertEqual(thp_mode(os.path.join(self.dir.name, "absent")),
                         "unknown")


if __name__ == "__main__":
    unittest.main()
