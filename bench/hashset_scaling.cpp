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
#include "harness/TablePrinter.h"
#include "support/Barrier.h"
#include "support/CommandLine.h"
#include "support/Stats.h"
#include "support/Timing.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace vbl;
using namespace vbl::harness;

namespace {

/// One fill-or-drain phase's op mix: 10% contains, 80% toward the
/// phase's direction, 10% against it (so the drained table never goes
/// exactly empty and the fill keeps probing absent keys).
SetOp pickPhaseOp(Xoshiro256 &Rng, bool Fill) {
  const uint64_t Roll = Rng.nextBounded(100);
  if (Roll < 10)
    return SetOp::Contains;
  if (Fill)
    return Roll < 90 ? SetOp::Insert : SetOp::Remove;
  return Roll < 90 ? SetOp::Remove : SetOp::Insert;
}

/// The grow/shrink phased workload the steady-state harness cannot
/// express: every thread alternates insert-heavy fill phases with
/// remove-heavy drain phases on a shared wall-clock grid (phase index =
/// elapsed / PhaseMs), so the whole table inflates and deflates
/// together. The index rides it down every drain and back up every
/// fill, which is exactly the regime the resize machinery — and its
/// cost — is for.
double runPhased(ConcurrentSet &Set, unsigned Threads, SetKey Range,
                 unsigned PhaseMs, unsigned Phases, uint64_t Seed) {
  const uint64_t WindowNs = uint64_t{PhaseMs} * Phases * 1000000ULL;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  std::vector<uint64_t> Ops(Threads, 0);
  Workers.reserve(Threads);
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back([&, T] {
      Xoshiro256 Rng(Seed + 0x9e3779b9ULL * (T + 1));
      Barrier.arriveAndWait();
      const uint64_t Start = nowNanos();
      uint64_t Local = 0;
      bool Fill = true;
      for (;;) {
        // Re-read the clock every 64 ops: cheap enough to keep the
        // phase grid tight at benchmark op rates.
        const uint64_t Elapsed = nowNanos() - Start;
        if (Elapsed >= WindowNs)
          break;
        Fill = ((Elapsed / 1000000ULL) / PhaseMs) % 2 == 0;
        for (int I = 0; I != 64; ++I) {
          const SetKey Key = Rng.nextBounded(Range);
          switch (pickPhaseOp(Rng, Fill)) {
          case SetOp::Insert:
            Set.insert(Key);
            break;
          case SetOp::Remove:
            Set.remove(Key);
            break;
          default:
            Set.contains(Key);
            break;
          }
          ++Local;
        }
      }
      Ops[T] = Local;
    });
  }
  for (std::thread &Worker : Workers)
    Worker.join();
  uint64_t Total = 0;
  for (uint64_t N : Ops)
    Total += N;
  return static_cast<double>(Total) / (WindowNs * 1e-9);
}

/// Repeats runPhased on fresh structures and reports the median point
/// (mirroring measurePoint's protocol), with the resize counter delta
/// attached under --stats.
BenchRecord measurePhased(const std::string &Structure, unsigned Threads,
                          SetKey Range, unsigned PhaseMs, unsigned Phases,
                          unsigned Repeats, uint64_t Seed) {
  BenchRecord Record;
  Record.Bench = "hashset_phased";
  Record.Structure = Structure;
  Record.Threads = Threads;
  Record.KeyRange = Range;
  Record.UpdatePercent = 90; // the per-phase update rate
  Record.Repeats = Repeats;

  const stats::Snapshot Before = stats::snapshotAll();
  SampleStats Throughput;
  for (unsigned R = 0; R != Repeats; ++R) {
    auto Set = makeSet(Structure);
    if (!Set) {
      std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                   Structure.c_str());
      std::abort();
    }
    prefill(*Set, Range, Seed + R);
    Throughput.add(
        runPhased(*Set, Threads, Range, PhaseMs, Phases, Seed + R));
  }
  Record.ThroughputOpsPerSec = Throughput.percentile(50);
  Record.ThroughputStddev = Throughput.stddev();
  if (statsCollectionEnabled()) {
    Record.HasStats = true;
    Record.Stats = stats::snapshotAll().delta(Before);
  }
  return Record;
}

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
      WorkloadConfig Config;
      Config.UpdatePercent =
          static_cast<unsigned>(Flags.getInt("update-percent"));
      Config.KeyRange = Range;
      Config.Threads = Threads;
      Config.DurationMs =
          static_cast<unsigned>(Flags.getInt("duration-ms"));
      Config.WarmupMs = static_cast<unsigned>(Flags.getInt("warmup-ms"));
      Config.Repeats = static_cast<unsigned>(Flags.getInt("repeats"));
      Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));

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
    const SetKey Range =
        static_cast<SetKey>(Flags.getInt("phased-range"));
    const unsigned PhaseMs = static_cast<unsigned>(Flags.getInt("phase-ms"));
    const unsigned Phases = static_cast<unsigned>(Flags.getInt("phases"));
    const unsigned Repeats = static_cast<unsigned>(Flags.getInt("repeats"));
    const uint64_t Seed = static_cast<uint64_t>(Flags.getInt("seed"));
    const std::vector<std::string> Phased = {"so-hash-vbl-resize",
                                             "so-hash-hm-resize"};
    for (unsigned Threads : Flags.getUnsignedList("threads")) {
      std::printf("\n== hashset_phased: %u thread(s), range %llu, "
                  "%u x %u ms fill/drain phases ==\n",
                  Threads, static_cast<unsigned long long>(Range), Phases,
                  PhaseMs);
      for (const std::string &Structure : Phased) {
        const BenchRecord Record = measurePhased(
            Structure, Threads, Range, PhaseMs, Phases, Repeats, Seed);
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
