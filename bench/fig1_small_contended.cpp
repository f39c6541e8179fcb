//===- bench/fig1_small_contended.cpp - Reproduces Figure 1 --------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Figure 1: throughput of the Lazy Linked List vs VBL on a ~25-node
/// list (key range 50, prefilled at 1/2 density) under 20% updates,
/// sweeping the thread count. The paper's claims to check against:
/// Lazy's throughput collapses once threads contend on the small list's
/// locks, VBL keeps scaling (or at least does not collapse), and the
/// gap at high thread counts is around 1.6x on the authors' 72-core
/// box. The ratio column prints vbl/lazy directly.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace vbl;
using namespace vbl::harness;

int main(int Argc, char **Argv) {
  FlagSet Flags("Figure 1: Lazy vs VBL, 20% updates, key range 50");
  Flags.addUnsignedList("threads", {1, 2, 4, 8}, "thread counts to sweep");
  Flags.addInt("range", 50, "key range (list size is about half)");
  Flags.addInt("update-percent", 20, "percentage of update operations");
  Flags.addInt("duration-ms", 120, "measured window per repetition");
  Flags.addInt("warmup-ms", 40, "warm-up before each window");
  Flags.addInt("repeats", 3, "repetitions per point (paper: 5)");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addStringList("algos", {"vbl", "lazy", "harris-michael"},
                      "comma-separated algorithms (first/second form "
                      "the ratio column)");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  WorkloadConfig Base = windowFromFlags(Flags);
  Base.UpdatePercent =
      static_cast<unsigned>(Flags.getInt("update-percent"));
  Base.KeyRange = Flags.getInt("range");

  std::printf("fig1: %u%% updates, key range %lld (expected list size "
              "~%lld)\n",
              Base.UpdatePercent, static_cast<long long>(Base.KeyRange),
              static_cast<long long>(Base.KeyRange / 2));

  Panel P("Fig.1 20% updates, range 50", Flags.getStringList("algos"),
          Flags.getUnsignedList("threads"));
  P.measureAll(Base);
  P.print();

  if (!Flags.getString("json").empty()) {
    BenchJsonReport Report;
    Report.setContext("bench_binary", "fig1_small_contended");
    P.appendJson(Report, Base);
    if (!Report.writeFile(Flags.getString("json")))
      return 1;
  }
  return 0;
}
