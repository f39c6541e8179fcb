//===- bench/skiplist_crossover.cpp - Lists vs the skip-list extension ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The paper's concluding remark motivates generalizing the approach to
/// skip lists. This bench frames that: VBL's O(n) traversals win on the
/// small, hot sets its evaluation targets, while the lazy skip list's
/// O(log n) search overtakes as the range grows. The printed sweep
/// locates the crossover on the host — the range beyond which "use a
/// skip list" beats any list-based set regardless of its concurrency
/// properties.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace vbl;
using namespace vbl::harness;

int main(int Argc, char **Argv) {
  FlagSet Flags("Range sweep: VBL vs Lazy vs lazy skip list");
  Flags.addUnsignedList("threads", {1, 4}, "thread counts");
  Flags.addUnsignedList("ranges", {50, 200, 2000, 20000},
                        "key ranges to sweep");
  Flags.addInt("update-percent", 20, "percentage of updates");
  Flags.addInt("duration-ms", 60, "measured window per repetition");
  Flags.addInt("warmup-ms", 20, "warm-up per window");
  Flags.addInt("repeats", 2, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  BenchJsonReport Report;
  Report.setContext("bench_binary", "skiplist_crossover");

  for (unsigned Range : Flags.getUnsignedList("ranges")) {
    WorkloadConfig Base = windowFromFlags(Flags);
    Base.UpdatePercent =
        static_cast<unsigned>(Flags.getInt("update-percent"));
    Base.KeyRange = Range;

    char Title[96];
    std::snprintf(Title, sizeof(Title), "range %u, %u%% updates", Range,
                  Base.UpdatePercent);
    Panel P(Title, {"skiplist-lazy", "vbl", "lazy"},
            Flags.getUnsignedList("threads"));
    P.measureAll(Base);
    P.print();
    P.appendJson(Report, Base);
  }
  std::printf("\n(the skiplist-lazy/vbl column locates the crossover: "
              "<1 on small hot sets, >1 once O(log n) wins)\n");
  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
