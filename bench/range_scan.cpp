//===- bench/range_scan.cpp - Range-scan mixes across substrates ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Where do chunked scans pay? A flat list's rangeQuery chases one
/// pointer per key; the chunk list collects up to K keys per cache
/// line under one seqlock-validated window. This sweep mixes point ops
/// with range scans — point-only (scan 0%), mixed (10%) and scan-heavy
/// (50%) — over `vbl-chunk` (K=7), `vbl-chunk-k15`, flat `vbl`,
/// `harris-michael` (the lock-free mark-aware scan) and
/// `skiplist-lazy`, plus a scan-length sweep at fixed range. Expected
/// shape: at small windows the scan is dominated by the routed entry
/// and all substrates tie; as windows grow the chunk layout pulls
/// ahead roughly K-fold on scan-heavy mixes. With --stats the records
/// carry scan.retries / scan.fallbacks / scan.keys_returned, so the
/// optimistic window's retry rate under update pressure is visible in
/// the same document.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/Barrier.h"
#include "support/CommandLine.h"
#include "support/Timing.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

using namespace vbl;
using namespace vbl::harness;

namespace {

struct ScanConfig {
  /// Percentage of operations that are range scans; the rest follow
  /// the usual update/contains split of WorkloadConfig::UpdatePercent.
  unsigned ScanPercent = 10;
  /// Keys spanned by each scan window [Start, Start + Length - 1].
  SetKey ScanLength = 256;
};

struct Padded {
  alignas(64) uint64_t Value = 0;
};

/// One measured window: the Runner protocol (barrier, warm-up, timed
/// window) with scans drawn into the op stream. Scans count as one op
/// each — the mixes are compared within a scan percent, never across.
RunResult runScanOnce(ConcurrentSet &Set, const WorkloadConfig &Config,
                      const ScanConfig &Scan) {
  const OpPicker Picker(Config.UpdatePercent);
  SpinBarrier StartBarrier(Config.Threads + 1);
  std::atomic<bool> WarmupDone{false};
  std::atomic<bool> Stop{false};
  std::vector<Padded> Counters(Config.Threads);

  std::vector<std::thread> Threads;
  Threads.reserve(Config.Threads);
  for (unsigned T = 0; T != Config.Threads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(Config.Seed + 7919 * (T + 1));
      const auto Range = static_cast<uint64_t>(Config.KeyRange);
      std::vector<SetKey> ScanOut;
      const auto OneOp = [&] {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(Range));
        if (Rng.nextBounded(100) < Scan.ScanPercent) {
          ScanOut.clear();
          Set.rangeQuery(Key, Key + Scan.ScanLength - 1, ScanOut);
          return;
        }
        switch (Picker.pick(Rng)) {
        case SetOp::Insert:
          Set.insert(Key);
          break;
        case SetOp::Remove:
          Set.remove(Key);
          break;
        case SetOp::Contains:
          Set.contains(Key);
          break;
        case SetOp::RangeQuery:
          vbl_unreachable("OpPicker yields point ops only");
        }
      };
      StartBarrier.arriveAndWait();
      while (!WarmupDone.load(std::memory_order_acquire))
        OneOp();
      uint64_t Ops = 0;
      while (!Stop.load(std::memory_order_acquire)) {
        OneOp();
        ++Ops;
      }
      Counters[T].Value = Ops;
    });
  }

  StartBarrier.arriveAndWait();
  std::this_thread::sleep_for(std::chrono::milliseconds(Config.WarmupMs));
  const uint64_t MeasureStart = nowNanos();
  WarmupDone.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(Config.DurationMs));
  Stop.store(true, std::memory_order_release);
  const uint64_t MeasureEnd = nowNanos();
  for (auto &Thread : Threads)
    Thread.join();

  RunResult Result;
  for (const Padded &Counter : Counters)
    Result.TotalOps += Counter.Value;
  Result.Seconds = static_cast<double>(MeasureEnd - MeasureStart) * 1e-9;
  Result.OpsPerSecond =
      static_cast<double>(Result.TotalOps) / Result.Seconds;
  Result.InvariantsHeld = Set.checkInvariants();
  return Result;
}

/// Repeats fresh structures, Runner-style; aborts on a broken
/// invariant so corrupt numbers are never published.
SampleStats measureScans(const std::string &Algorithm,
                         const WorkloadConfig &Config,
                         const ScanConfig &Scan,
                         stats::Snapshot &StatsDelta) {
  const stats::Snapshot Before = statsCollectionEnabled()
                                     ? stats::snapshotAll()
                                     : stats::Snapshot();
  SampleStats Samples;
  for (unsigned Rep = 0; Rep != Config.Repeats; ++Rep) {
    auto Set = makeSet(Algorithm);
    if (!Set) {
      std::fprintf(stderr, "error: unknown structure '%s'\n",
                   Algorithm.c_str());
      std::abort();
    }
    WorkloadConfig RepConfig = Config;
    RepConfig.Seed = Config.Seed + 1000003 * Rep;
    prefill(*Set, Config.KeyRange, RepConfig.Seed);
    const RunResult Result = runScanOnce(*Set, RepConfig, Scan);
    if (!Result.InvariantsHeld) {
      std::fprintf(stderr, "error: %s broke invariants under scans\n",
                   Algorithm.c_str());
      std::abort();
    }
    Samples.add(Result.OpsPerSecond);
  }
  StatsDelta = statsCollectionEnabled()
                   ? stats::snapshotAll().delta(Before)
                   : stats::Snapshot();
  return Samples;
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Range-scan mixes: chunked vs flat vs lock-free scans");
  Flags.addUnsignedList("threads", {1, 4}, "thread counts to sweep");
  Flags.addUnsignedList("ranges", {1024, 8192}, "key ranges to sweep");
  Flags.addUnsignedList("scan-percents", {0, 10, 50},
                        "scan share per mix: 0 = point-only baseline, "
                        "10 = mixed, 50 = scan-heavy");
  Flags.addUnsignedList("scan-lengths", {256},
                        "keys per scan window; sweep to locate where "
                        "the chunk layout starts paying");
  Flags.addInt("update-percent", 20,
               "updates within the non-scan remainder");
  Flags.addInt("duration-ms", 80, "measured window per repetition");
  Flags.addInt("warmup-ms", 25, "warm-up before each window");
  Flags.addInt("repeats", 2, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("structures",
                  "vbl-chunk,vbl,vbl-chunk-k15,harris-michael,"
                  "skiplist-lazy",
                  "comma-separated registry names to sweep");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect scan.{retries,fallbacks,keys_returned} and "
                "report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  std::vector<std::string> Structures;
  {
    const std::string &Raw = Flags.getString("structures");
    size_t Pos = 0;
    while (Pos <= Raw.size()) {
      const size_t Comma = Raw.find(',', Pos);
      Structures.push_back(Raw.substr(
          Pos, Comma == std::string::npos ? Comma : Comma - Pos));
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 1;
    }
  }
  BenchJsonReport Report;
  Report.setContext("bench_binary", "range_scan");

  for (unsigned Range : Flags.getUnsignedList("ranges")) {
    for (unsigned ScanPercent : Flags.getUnsignedList("scan-percents")) {
      for (unsigned ScanLength : Flags.getUnsignedList("scan-lengths")) {
        // The point-only baseline is scan-length-independent; emit it
        // once per range, under the first length only.
        if (ScanPercent == 0 &&
            ScanLength != Flags.getUnsignedList("scan-lengths").front())
          continue;
        WorkloadConfig Base;
        Base.UpdatePercent =
            static_cast<unsigned>(Flags.getInt("update-percent"));
        Base.KeyRange = Range;
        Base.DurationMs =
            static_cast<unsigned>(Flags.getInt("duration-ms"));
        Base.WarmupMs = static_cast<unsigned>(Flags.getInt("warmup-ms"));
        Base.Repeats = static_cast<unsigned>(Flags.getInt("repeats"));
        Base.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
        ScanConfig Scan;
        Scan.ScanPercent = ScanPercent;
        Scan.ScanLength = ScanLength;

        char Title[96];
        if (ScanPercent == 0)
          std::snprintf(Title, sizeof(Title),
                        "range_scan point-only range %u", Range);
        else
          std::snprintf(Title, sizeof(Title),
                        "range_scan scan%u len%u range %u", ScanPercent,
                        ScanLength, Range);
        // First/second form the printed ratio column: vbl-chunk / vbl
        // is the chunked-scan speedup under test.
        Panel P(Title, Structures, Flags.getUnsignedList("threads"));
        for (unsigned Threads : Flags.getUnsignedList("threads")) {
          WorkloadConfig Config = Base;
          Config.Threads = Threads;
          for (const std::string &Algorithm : Structures) {
            stats::Snapshot Delta;
            P.setResult(Threads, Algorithm,
                        measureScans(Algorithm, Config, Scan, Delta));
            if (!Delta.empty())
              P.setStats(Threads, Algorithm, Delta);
          }
        }
        P.print();
        P.appendJson(Report, Base);
      }
    }
  }

  std::printf("\n(vbl-chunk/vbl is the chunked-scan speedup; it should "
              "grow with scan length and scan share — the point-only "
              "panels pin the chunk protocol's baseline cost)\n");
  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
