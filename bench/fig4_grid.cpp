//===- bench/fig4_grid.cpp - Reproduces the Figure 4 grid ----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Figure 4: the full evaluation grid — workloads {0%, 20%, 100%}
/// updates x key ranges {50, 200, 2000, 20000}, each panel a thread
/// sweep of VBL vs Lazy vs Harris-Michael. Twelve panels, matching the
/// paper's Intel figure. Expected shapes: VBL >= Lazy everywhere with
/// the gap widening under contention (small range, high update ratio);
/// Harris-Michael trails on read-heavy loads (mark-read overhead on
/// traversal) but is competitive on 100% updates.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace vbl;
using namespace vbl::harness;

int main(int Argc, char **Argv) {
  FlagSet Flags("Figure 4: VBL vs Lazy vs Harris-Michael grid");
  Flags.addUnsignedList("threads", {1, 2, 4, 8}, "thread counts to sweep");
  Flags.addUnsignedList("updates", {0, 20, 100},
                        "update percentages (grid rows)");
  Flags.addUnsignedList("ranges", {50, 200, 2000, 20000},
                        "key ranges (grid columns)");
  Flags.addInt("duration-ms", 80, "measured window per repetition");
  Flags.addInt("warmup-ms", 25, "warm-up before each window");
  Flags.addInt("repeats", 2, "repetitions per point (paper: 5)");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  const std::vector<std::string> Algos = {"vbl", "lazy",
                                          "harris-michael"};
  BenchJsonReport Report;
  Report.setContext("bench_binary", "fig4_grid");

  for (unsigned Update : Flags.getUnsignedList("updates")) {
    for (unsigned Range : Flags.getUnsignedList("ranges")) {
      WorkloadConfig Base;
      Base.UpdatePercent = Update;
      Base.KeyRange = Range;
      Base.DurationMs =
          static_cast<unsigned>(Flags.getInt("duration-ms"));
      Base.WarmupMs = static_cast<unsigned>(Flags.getInt("warmup-ms"));
      Base.Repeats = static_cast<unsigned>(Flags.getInt("repeats"));
      Base.Seed = static_cast<uint64_t>(Flags.getInt("seed"));

      char Title[96];
      std::snprintf(Title, sizeof(Title),
                    "Fig.4 %u%% updates, range %u", Update, Range);
      Panel P(Title, Algos, Flags.getUnsignedList("threads"));
      P.measureAll(Base);
      P.print();
      P.appendJson(Report, Base);
    }
  }

  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
