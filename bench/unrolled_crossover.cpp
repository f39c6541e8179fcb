//===- bench/unrolled_crossover.cpp - Flat VBL vs unrolled chunks --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Where does unrolling pay? The chunked VBL variants trade per-key
/// pointer chases for K keys per cache line, at the cost of chunk
/// maintenance (split/compact/unlink) on updates. This sweep pits flat
/// `vbl` and the O(log n) `skiplist-lazy` against `vbl-chunk-k1`
/// (chunk protocol, flat-like layout — the unrolling ablation),
/// `vbl-chunk` (K=7, one 64-byte key line) and `vbl-chunk-k15` (two
/// key lines) across ranges 128..64k under a read-heavy mix. Expected
/// shape: chunks ~match flat VBL on tiny hot sets, pull ahead roughly
/// K-fold as the range grows past the cache, and eventually lose to
/// the skip list's O(log n) — the two crossovers the ratio columns
/// locate. The K=1 ablation separates layout wins from protocol costs.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace vbl;
using namespace vbl::harness;

namespace {

/// A mixed hot/cold workload the uniform steady-state mix cannot
/// express: a small hot region takes pure insert/remove churn (chunks
/// there split, empty and merge constantly), while the large cold region
/// is read-dominated with a trickle of updates (sparse chunks merge back
/// toward dense cache lines). Every K pays one shape for both regions;
/// the panel shows which K does so best.
struct HotColdSource {
  SetKey Range;
  SetKey HotKeys;
  unsigned HotPercent;

  SetOp operator()(ConcurrentSet &Set, Xoshiro256 &Rng) const {
    if (Rng.nextPercent(HotPercent)) {
      // Hot region: pure update churn on few keys.
      const SetKey Key = Rng.nextBounded(HotKeys);
      return applyOp(Set,
                     Rng.nextBounded(2) == 0 ? SetOp::Insert
                                             : SetOp::Remove,
                     Key);
    }
    // Cold region: 90% contains, 10% updates — enough churn to keep
    // occupancy drifting across the merge threshold.
    const SetKey Key = HotKeys + Rng.nextBounded(Range - HotKeys);
    const uint64_t Roll = Rng.nextBounded(100);
    return applyOp(Set,
                   Roll >= 10  ? SetOp::Contains
                   : Roll >= 5 ? SetOp::Insert
                               : SetOp::Remove,
                   Key);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Unrolled chunk crossover: flat VBL vs K in {1,7,15}");
  Flags.addUnsignedList("threads", {1, 4}, "thread counts to sweep");
  Flags.addUnsignedList("ranges", {128, 1024, 8192, 65536},
                        "key ranges to sweep");
  Flags.addInt("update-percent", 10,
               "percentage of updates (read-heavy by default)");
  Flags.addInt("duration-ms", 80, "measured window per repetition");
  Flags.addInt("warmup-ms", 25, "warm-up before each window");
  Flags.addInt("repeats", 2, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  Flags.addBool("hotcold", false,
                "also run the mixed hot/cold panel (K=7 vs K=1 vs K=15)");
  Flags.addInt("hotcold-range", 8192, "key range for the hot/cold panel");
  Flags.addInt("hot-keys", 64, "size of the contended hot region");
  Flags.addInt("hot-percent", 50,
               "share of operations aimed at the hot region");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  BenchJsonReport Report;
  Report.setContext("bench_binary", "unrolled_crossover");

  for (unsigned Range : Flags.getUnsignedList("ranges")) {
    WorkloadConfig Base = windowFromFlags(Flags);
    Base.UpdatePercent =
        static_cast<unsigned>(Flags.getInt("update-percent"));
    Base.KeyRange = Range;

    char Title[96];
    std::snprintf(Title, sizeof(Title), "unrolled range %u, %u%% updates",
                  Range, Base.UpdatePercent);
    // First/second form the printed ratio column: vbl-chunk / vbl is
    // the unrolling speedup under test.
    Panel P(Title,
            {"vbl-chunk", "vbl", "vbl-chunk-k1", "vbl-chunk-k15",
             "skiplist-lazy"},
            Flags.getUnsignedList("threads"));
    P.measureAll(Base);
    P.print();
    P.appendJson(Report, Base);
  }

  std::printf("\n(vbl-chunk/vbl is the unrolling speedup; it should "
              "grow with range until skiplist-lazy's O(log n) takes "
              "over)\n");

  if (Flags.getBool("hotcold")) {
    // The records' update_pct is the hot share. Their bench key names
    // the panel's first purpose (an adaptive chunk list against static
    // K), kept so recorded baseline points still match.
    WorkloadConfig Config = windowFromFlags(Flags);
    Config.UpdatePercent =
        static_cast<unsigned>(Flags.getInt("hot-percent"));
    Config.KeyRange = static_cast<SetKey>(Flags.getInt("hotcold-range"));
    const HotColdSource HotCold{
        Config.KeyRange, static_cast<SetKey>(Flags.getInt("hot-keys")),
        Config.UpdatePercent};
    const std::vector<std::string> HotColdStructures = {
        "vbl-chunk", "vbl-chunk-k1", "vbl-chunk-k15"};
    for (unsigned Threads : Flags.getUnsignedList("threads")) {
      std::printf("\n== hotcold: %u thread(s), range %llu, hot region "
                  "%llu keys taking %u%% of ops ==\n",
                  Threads, static_cast<unsigned long long>(HotCold.Range),
                  static_cast<unsigned long long>(HotCold.HotKeys),
                  HotCold.HotPercent);
      Config.Threads = Threads;
      std::vector<BenchRecord> RowRecords;
      for (const std::string &Structure : HotColdStructures) {
        const BenchRecord Record =
            measurePoint("hotcold_adaptive", Structure, Config, HotCold,
                         /*WithLatency=*/false);
        std::printf("%22s %12.3f Mops\n", Structure.c_str(),
                    Record.ThroughputOpsPerSec * 1e-6);
        RowRecords.push_back(Record);
        Report.add(Record);
      }
      for (const BenchRecord &Record : RowRecords) {
        if (!Record.HasStats || Record.Stats.empty())
          continue;
        std::printf("  -- stats: %s --\n", Record.Structure.c_str());
        std::fputs(stats::renderTable(Record.Stats, "    ").c_str(),
                   stdout);
      }
    }
  }
  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
