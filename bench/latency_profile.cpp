//===- bench/latency_profile.cpp - Per-op latency percentiles ------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Complements the throughput figures with tail behaviour: per-op
/// latency percentiles under the Fig. 1 workload. The interesting
/// comparison: VBL's p99 for *failed* updates is a pure traversal
/// (never parks on a lock), while Lazy's update tail absorbs lock
/// convoys — on any host, the update-tail gap widens with threads.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"
#include "harness/Runner.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <memory>

using namespace vbl;
using namespace vbl::harness;

static void printRow(const char *Op, const SampleStats &Stats) {
  if (Stats.empty()) {
    std::printf("  %-9s (no samples)\n", Op);
    return;
  }
  std::printf("  %-9s n=%-8zu p50=%7.0fns p90=%7.0fns p99=%8.0fns "
              "p999=%8.0fns max=%9.0fns\n",
              Op, Stats.count(), Stats.percentile(50),
              Stats.percentile(90), Stats.percentile(99),
              Stats.percentile(99.9), Stats.max());
}

int main(int Argc, char **Argv) {
  FlagSet Flags("Per-operation latency percentiles");
  Flags.addUnsignedList("threads", {1, 4}, "thread counts");
  Flags.addInt("range", 50, "key range");
  Flags.addInt("update-percent", 20, "percentage of updates");
  Flags.addInt("duration-ms", 120, "measured window");
  Flags.addStringList("algos", {"vbl", "lazy", "harris-michael"},
                      "comma-separated algorithms");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  harness::BenchJsonReport Report;
  Report.setContext("bench_binary", "latency_profile");

  for (unsigned Threads : Flags.getUnsignedList("threads")) {
    std::printf("\n=== %u thread(s), %lld%% updates, range %lld ===\n",
                Threads,
                static_cast<long long>(Flags.getInt("update-percent")),
                static_cast<long long>(Flags.getInt("range")));
    for (const std::string &Algo : Flags.getStringList("algos")) {
      WorkloadConfig Config;
      Config.UpdatePercent =
          static_cast<unsigned>(Flags.getInt("update-percent"));
      Config.KeyRange = Flags.getInt("range");
      Config.Threads = Threads;
      Config.DurationMs =
          static_cast<unsigned>(Flags.getInt("duration-ms"));
      Config.WarmupMs = 0; // No warm-up flag: the window starts at once.
      Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));

      const std::unique_ptr<ConcurrentSet> Set =
          makePrefilledSet(Algo, Config);
      LatencyProfile Profile;
      // This bench bypasses measureAlgorithm, so it brackets the
      // window with its own snapshots.
      const stats::Snapshot StatsMark = statsMark();
      const RunResult Result = runOnce(*Set, Config, &Profile);
      const stats::Snapshot StatsDelta = statsSince(StatsMark);
      if (!Result.InvariantsHeld) {
        std::fprintf(stderr, "error: %s corrupted its structure\n",
                     Algo.c_str());
        return 1;
      }
      std::printf("%s:\n", Algo.c_str());
      printRow("contains", Profile.Contains);
      printRow("insert", Profile.Insert);
      printRow("remove", Profile.Remove);
      if (!StatsDelta.empty())
        std::fputs(stats::renderTable(StatsDelta, "    ").c_str(),
                   stdout);

      // One record per operation kind: the throughput is the window's
      // (instrumented) rate over every op it ran, the latency
      // percentiles are the payload.
      const std::pair<const char *, const SampleStats *> Ops[] = {
          {"contains", &Profile.Contains},
          {"insert", &Profile.Insert},
          {"remove", &Profile.Remove},
      };
      for (const auto &[Op, Stats] : Ops) {
        if (Stats->empty())
          continue;
        harness::BenchRecord Record;
        Record.Bench = "latency_profile";
        Record.Structure = Algo + "/" + Op;
        Record.Threads = Threads;
        Record.KeyRange = Config.KeyRange;
        Record.UpdatePercent = Config.UpdatePercent;
        Record.Repeats = 1;
        Record.ThroughputOpsPerSec = Result.OpsPerSecond;
        Record.setLatency(*Stats);
        // The three per-op records describe one shared window (see
        // ThroughputOpsPerSec above), so they share its delta too.
        if (!StatsDelta.empty()) {
          Record.HasStats = true;
          Record.Stats = StatsDelta;
        }
        Report.add(Record);
      }
    }
  }

  if (!Flags.getString("json").empty())
    if (!Report.writeFile(Flags.getString("json")))
      return 1;
  return 0;
}
