//===- bench/readonly_traversal.cpp - §1 read-only claim -----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The paper's §1 claim: "as our algorithm differs from Harris-Michael
/// by avoiding metadata accesses during traversals, it outperforms it
/// by up to 1.6x on read-only workloads." This bench isolates that
/// effect: 0% updates across the key ranges, VBL (value-only
/// traversals) vs Harris-Michael (mark-tagged next words) vs Lazy
/// (value traversal + one mark read at the end). The vbl/harris-michael
/// ratio column is the claim under test.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace vbl;
using namespace vbl::harness;

int main(int Argc, char **Argv) {
  FlagSet Flags("Read-only traversal: VBL vs Harris-Michael vs Lazy");
  Flags.addUnsignedList("threads", {1, 2, 4}, "thread counts to sweep");
  Flags.addUnsignedList("ranges", {200, 2000, 20000}, "key ranges");
  Flags.addInt("duration-ms", 100, "measured window per repetition");
  Flags.addInt("warmup-ms", 30, "warm-up before each window");
  Flags.addInt("repeats", 3, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  BenchJsonReport Report;
  Report.setContext("bench_binary", "readonly_traversal");

  for (unsigned Range : Flags.getUnsignedList("ranges")) {
    WorkloadConfig Base = windowFromFlags(Flags);
    Base.UpdatePercent = 0;
    Base.KeyRange = Range;

    char Title[96];
    std::snprintf(Title, sizeof(Title),
                  "read-only contains, range %u", Range);
    Panel P(Title, {"vbl", "harris-michael", "lazy"},
            Flags.getUnsignedList("threads"));
    P.measureAll(Base);
    P.print();
    P.appendJson(Report, Base);
  }
  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
