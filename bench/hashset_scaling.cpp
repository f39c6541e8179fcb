//===- bench/hashset_scaling.cpp - Flat lists vs split-ordered hashing ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Where does hashing pay? Sweeps the key range on a contains-heavy
/// workload (10% updates by default) and compares each flat list (vbl,
/// harris-michael) against its split-ordered hash overlay
/// (so-hash-vbl-resize, so-hash-hm-resize). Lists traverse O(n) nodes
/// per operation, so their
/// throughput falls off linearly with the range; the hash overlays stay
/// near-flat (O(1) expected bucket length), and the crossover is the
/// point where sharding the paper's structures starts to matter.
/// Expected: the overlays win clearly from key range ~16k up at every
/// thread count (EXPERIMENTS.md records the measured grid).
///
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"
#include "support/CommandLine.h"
#include "support/Timing.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace vbl;
using namespace vbl::harness;

namespace {

/// The grow/shrink phased workload the steady-state mix cannot express:
/// every worker alternates insert-heavy fill phases with remove-heavy
/// drain phases on a wall-clock grid that starts at its first op
/// (phase index = elapsed / PhaseMs), so the whole table inflates and
/// deflates together. The index rides it down every drain and back up
/// every fill, which is exactly the regime the resize machinery — and
/// its cost — is for. A phase's mix is 10% contains, 80% toward the
/// phase's direction and 10% against it (so the drained table never
/// goes exactly empty and the fill keeps probing absent keys).
class PhasedSource {
public:
  PhasedSource(SetKey Range, unsigned PhaseMs)
      : Range(static_cast<uint64_t>(Range)),
        PhaseNs(uint64_t{PhaseMs} * 1000000ULL) {}

  SetOp operator()(ConcurrentSet &Set, Xoshiro256 &Rng) {
    // Re-read the clock every 64 ops: cheap enough to keep the phase
    // grid tight at benchmark op rates.
    if (Ops++ % 64 == 0) {
      const uint64_t Now = nowNanos();
      if (Start == 0)
        Start = Now;
      Fill = ((Now - Start) / PhaseNs) % 2 == 0;
    }
    const SetKey Key = static_cast<SetKey>(Rng.nextBounded(Range));
    const uint64_t Roll = Rng.nextBounded(100);
    const SetOp Toward = Fill ? SetOp::Insert : SetOp::Remove;
    const SetOp Against = Fill ? SetOp::Remove : SetOp::Insert;
    return applyOp(Set,
                   Roll < 10   ? SetOp::Contains
                   : Roll < 90 ? Toward
                               : Against,
                   Key);
  }

private:
  uint64_t Range;
  uint64_t PhaseNs;
  uint64_t Start = 0;
  uint64_t Ops = 0;
  bool Fill = true;
};

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Key-range sweep: flat lists vs split-ordered hash sets");
  Flags.addUnsignedList("threads", {1, 2, 4}, "thread counts to sweep");
  Flags.addUnsignedList("ranges", {1024, 4096, 16384, 65536},
                        "key ranges to sweep");
  Flags.addInt("update-percent", 10,
               "percentage of update operations (contains-heavy)");
  Flags.addInt("duration-ms", 60, "measured window per repetition");
  Flags.addInt("warmup-ms", 20, "warm-up before each window");
  Flags.addInt("repeats", 2, "repetitions per point (paper: 5)");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addBool("latency", false,
                "collect a per-op latency repetition per point");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  Flags.addBool("phased", false,
                "also run the grow/shrink phased workload");
  Flags.addInt("phase-ms", 40, "fill/drain phase length (phased mode)");
  Flags.addInt("phases", 6, "number of alternating phases (phased mode)");
  Flags.addInt("phased-range", 8192, "key range for the phased workload");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  const std::vector<std::string> Structures = {
      "vbl", "so-hash-vbl-resize", "harris-michael", "so-hash-hm-resize"};
  const bool WithLatency = Flags.getBool("latency");

  BenchJsonReport Report;
  Report.setContext("bench_binary", "hashset_scaling");
  Report.setContext("workload", "uniform keys, contains-heavy");

  for (unsigned Threads : Flags.getUnsignedList("threads")) {
    std::printf("\n== hashset_scaling: %u thread(s), %d%% updates ==\n",
                Threads, static_cast<int>(Flags.getInt("update-percent")));
    std::printf("%10s", "range");
    for (const std::string &Structure : Structures)
      std::printf(" %16s", Structure.c_str());
    std::printf(" %14s\n", "so-vbl/vbl");
    for (unsigned Range : Flags.getUnsignedList("ranges")) {
      WorkloadConfig Config = windowFromFlags(Flags);
      Config.UpdatePercent =
          static_cast<unsigned>(Flags.getInt("update-percent"));
      Config.KeyRange = Range;
      Config.Threads = Threads;

      std::printf("%10u", Range);
      double FlatVbl = 0.0;
      double HashVbl = 0.0;
      std::vector<BenchRecord> RowRecords;
      for (const std::string &Structure : Structures) {
        const BenchRecord Record = measurePoint(
            "hashset_scaling", Structure, Config, WithLatency);
        std::printf(" %12.3f Mops", Record.ThroughputOpsPerSec * 1e-6);
        std::fflush(stdout);
        if (Structure == "vbl")
          FlatVbl = Record.ThroughputOpsPerSec;
        else if (Structure == "so-hash-vbl-resize")
          HashVbl = Record.ThroughputOpsPerSec;
        RowRecords.push_back(Record);
        Report.add(Record);
      }
      if (FlatVbl > 0)
        std::printf(" %13.2fx", HashVbl / FlatVbl);
      std::printf("\n");
      // Counter tables after the row so the sweep stays readable.
      for (const BenchRecord &Record : RowRecords) {
        if (!Record.HasStats || Record.Stats.empty())
          continue;
        std::printf("  -- stats: %s --\n", Record.Structure.c_str());
        std::fputs(stats::renderTable(Record.Stats, "    ").c_str(),
                   stdout);
      }
    }
  }

  if (Flags.getBool("phased")) {
    const unsigned PhaseMs = static_cast<unsigned>(Flags.getInt("phase-ms"));
    const unsigned Phases = static_cast<unsigned>(Flags.getInt("phases"));
    WorkloadConfig Config = windowFromFlags(Flags);
    Config.UpdatePercent = 90; // the per-phase update rate
    Config.KeyRange = static_cast<SetKey>(Flags.getInt("phased-range"));
    Config.DurationMs = PhaseMs * Phases;
    // No warm-up: the fill/drain grid starts with the window, so the
    // window holds every phase.
    Config.WarmupMs = 0;
    const PhasedSource Source(Config.KeyRange, PhaseMs);
    const std::vector<std::string> Phased = {"so-hash-vbl-resize",
                                             "so-hash-hm-resize"};
    for (unsigned Threads : Flags.getUnsignedList("threads")) {
      std::printf("\n== hashset_phased: %u thread(s), range %llu, "
                  "%u x %u ms fill/drain phases ==\n",
                  Threads, static_cast<unsigned long long>(Config.KeyRange),
                  Phases, PhaseMs);
      Config.Threads = Threads;
      for (const std::string &Structure : Phased) {
        const BenchRecord Record =
            measurePoint("hashset_phased", Structure, Config, Source,
                         /*WithLatency=*/false);
        std::printf("%22s %12.3f Mops\n", Structure.c_str(),
                    Record.ThroughputOpsPerSec * 1e-6);
        Report.add(Record);
        if (Record.HasStats && !Record.Stats.empty()) {
          std::printf("  -- stats: %s --\n", Record.Structure.c_str());
          std::fputs(stats::renderTable(Record.Stats, "    ").c_str(),
                     stdout);
        }
      }
    }
  }

  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
