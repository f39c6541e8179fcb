//===- bench/micro_reclaim.cpp - Reclamation primitive costs -------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Per-primitive costs of the reclamation substrate that replaces the
/// paper's JVM GC: epoch guard enter/exit (paid once per list
/// operation), the VBR version-clock snapshot (its cheaper equivalent),
/// hazard-pointer protection (paid once per traversal hop in the HP
/// variant), retire throughput for all three managed domains, and the
/// node pool's recycle-vs-heap delta. Two families of numbers:
///
///  - "guard/...", "protect/...", "retire/...": tight loops over a
///    single primitive, reported as ops/second.
///  - "domain/...": building a domain, what every set pays on top of
///    its sentinels: construct, enter one guard on the calling thread,
///    destroy; one op is one such cycle.
///  - "churn/...": full list workloads at high update ratio, run twice —
///    pool enabled and pool bypassed (NodePool::ScopedBypass) — so the
///    end-to-end benefit of recycling is a single ratio. These feed the
///    EXPERIMENTS.md pool table and the CI perf gate.
///
/// Emits vbl-bench-v1 JSON via --json like the figure benches.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"
#include "reclaim/EpochDomain.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/LeakyDomain.h"
#include "reclaim/NodePool.h"
#include "reclaim/VbrDomain.h"
#include "support/CommandLine.h"

#include <chrono>
#include <cstdio>
#include <new>
#include <string>

using namespace vbl;
using namespace vbl::harness;
using namespace vbl::reclaim;

namespace {

/// Keeps the compiler from discarding a primitive-only loop body.
template <class T> inline void doNotOptimize(T const &Value) {
  asm volatile("" : : "r,m"(Value) : "memory");
}

/// Times \p Body (one primitive op per call) in Window.Repeats windows
/// of Window.DurationMs; returns ops/second samples. Runs on the calling
/// thread rather than in a runWindow worker: guard/epoch_nested and
/// protect/hazard time their primitive inside a guard the caller holds,
/// and a guard belongs to the thread that entered it.
template <class F>
SampleStats measureLoop(const WorkloadConfig &Window, F &&Body) {
  using Clock = std::chrono::steady_clock;
  SampleStats Stats;
  for (unsigned Rep = 0; Rep != Window.Repeats; ++Rep) {
    const auto Deadline =
        Clock::now() + std::chrono::milliseconds(Window.DurationMs);
    uint64_t Ops = 0;
    const auto Start = Clock::now();
    auto Now = Start;
    while (Now < Deadline) {
      for (int I = 0; I != 256; ++I)
        Body();
      Ops += 256;
      Now = Clock::now();
    }
    const double Seconds =
        std::chrono::duration<double>(Now - Start).count();
    Stats.add(static_cast<double>(Ops) / Seconds);
  }
  return Stats;
}

/// Multi-threaded variant: \p Threads workers hammer \p Body
/// concurrently through one window per repeat (no warm-up); the sample
/// is the combined ops/second.
template <class F>
SampleStats measureThreads(const WorkloadConfig &Window, unsigned Threads,
                           const F &Body) {
  SampleStats Stats;
  for (unsigned Rep = 0; Rep != Window.Repeats; ++Rep)
    Stats.add(runWindow(Threads, /*WarmupMs=*/0, Window.DurationMs,
                        [&](unsigned, const StageFlag &Flag) {
                          // A worker-local copy: its captures stay in
                          // registers across doNotOptimize's clobber.
                          F Mine = Body;
                          uint64_t Ops = 0;
                          while (Flag.current() != Stage::Stop) {
                            for (int I = 0; I != 256; ++I)
                              Mine();
                            Ops += 256;
                          }
                          return Ops;
                        })
                  .OpsPerSecond);
  return Stats;
}

void report(BenchJsonReport &Report, const std::string &Structure,
            unsigned Threads, const SampleStats &Stats) {
  std::printf("  %-24s %10.2f Mops/s  (stddev %.2f, %u threads)\n",
              Structure.c_str(), Stats.mean() / 1e6, Stats.stddev() / 1e6,
              Threads);
  BenchRecord Record;
  Record.Bench = "micro_reclaim";
  Record.Structure = Structure;
  Record.Threads = Threads;
  Record.KeyRange = 0;
  Record.UpdatePercent = 0;
  Record.Repeats = static_cast<unsigned>(Stats.count());
  Record.ThroughputOpsPerSec = Stats.mean();
  Record.ThroughputStddev = Stats.stddev();
  Report.add(Record);
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Reclamation and node-pool primitive costs");
  Flags.addInt("duration-ms", 100, "measured window per repetition");
  Flags.addInt("warmup-ms", 30, "warm-up before each churn window");
  Flags.addInt("repeats", 3, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addInt("update-percent", 100,
               "update ratio for the churn workloads");
  Flags.addUnsignedList("churn-threads", {1, 4},
                        "thread counts for the churn workloads");
  // vbl-vbr rides along in the churn family: its recycling happens in
  // the domain's own free lists, so the pool-vs-bypass ratio should sit
  // near 1.0 — a drift there means fresh allocations crept back into
  // the steady state.
  Flags.addStringList("churn-algos", {"vbl", "vbl-vbr", "harris-michael"},
                      "list algorithms measured pool-vs-bypass");
  Flags.addUnsignedList("churn-ranges", {128, 1024},
                        "key ranges for the churn workloads");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  WorkloadConfig Base = windowFromFlags(Flags);

  BenchJsonReport Report;
  Report.setContext("bench_binary", "micro_reclaim");
  Report.setContext("pool_bypassed_by_default",
                    NodePool::bypassed() ? "1" : "0");

  std::printf("reclamation primitives (%u ms x %u repeats):\n",
              Base.DurationMs, Base.Repeats);

  {
    LeakyDomain Domain;
    report(Report, "guard/leaky", 1,
           measureLoop(Base, [&] {
             LeakyDomain::Guard G(Domain);
             doNotOptimize(G);
           }));
  }
  {
    EpochDomain Domain;
    report(Report, "guard/epoch", 1,
           measureLoop(Base, [&] {
             EpochDomain::Guard G(Domain);
             doNotOptimize(G);
           }));
  }
  {
    EpochDomain Domain;
    EpochDomain::Guard Outer(Domain);
    report(Report, "guard/epoch_nested", 1,
           measureLoop(Base, [&] {
             EpochDomain::Guard Inner(Domain);
             doNotOptimize(Inner);
           }));
  }
  {
    EpochDomain Domain;
    report(Report, "guard/epoch_mt", 4,
           measureThreads(Base, 4, [&] {
             EpochDomain::Guard G(Domain);
             doNotOptimize(G);
           }));
  }
  {
    // The VBR guard is one acquire load of the version clock — no
    // announce store, no fence — which is the domain's headline claim
    // versus the epoch guard above.
    VbrDomain Domain;
    report(Report, "guard/vbr", 1,
           measureLoop(Base, [&] {
             VbrDomain::Guard G(Domain);
             doNotOptimize(G.version());
           }));
  }
  {
    // Multi-threaded: readers share the clock line read-only, so this
    // should scale where guard/epoch_mt pays announce-slot traffic.
    VbrDomain Domain;
    report(Report, "guard/vbr_mt", 4,
           measureThreads(Base, 4, [&] {
             VbrDomain::Guard G(Domain);
             doNotOptimize(G.version());
           }));
  }
  // The epoch and hazard guards attach the calling thread, so those
  // rows include its record claim and the record block it allocates.
  // The VBR guard only reads the clock and claims no record, so
  // domain/vbr is construction and destruction alone.
  report(Report, "domain/epoch", 1, measureLoop(Base, [] {
           EpochDomain Domain;
           EpochDomain::Guard G(Domain);
           doNotOptimize(G);
         }));
  report(Report, "domain/vbr", 1, measureLoop(Base, [] {
           VbrDomain Domain;
           VbrDomain::Guard G(Domain);
           doNotOptimize(G.version());
         }));
  report(Report, "domain/hp", 1, measureLoop(Base, [] {
           HazardPointerDomain Domain;
           HazardPointerDomain::Guard G(Domain);
           doNotOptimize(G);
         }));
  {
    HazardPointerDomain Domain;
    std::atomic<int *> Source{new int(7)};
    {
      HazardPointerDomain::Guard G(Domain);
      report(Report, "protect/hazard", 1,
             measureLoop(Base, [&] {
               int *P = G.protect(0, Source);
               doNotOptimize(P);
             }));
    }
    delete Source.load(std::memory_order_relaxed);
  }
  {
    // Guard per iteration: holding one guard across the whole loop
    // would pin the epoch and make every retirement unreclaimable — a
    // pathological pattern, not the one the lists use (guard per op).
    EpochDomain Domain;
    report(Report, "retire/epoch", 1,
           measureLoop(Base, [&] {
             EpochDomain::Guard G(Domain);
             Domain.retire(new int(1));
           }));
  }
  {
    // Same loop through the node pool: once the first grace periods
    // elapse, every allocation is a recycled block.
    EpochDomain Domain;
    report(Report, "retire/epoch_pooled", 1,
           measureLoop(Base, [&] {
             EpochDomain::Guard G(Domain);
             poolRetire(Domain, poolCreate<int>(1));
           }));
  }
  {
    HazardPointerDomain Domain;
    report(Report, "retire/hazard", 1,
           measureLoop(Base, [&] {
             Domain.retire(new int(1));
           }));
  }
  {
    // The VBR turnaround: retirement makes the block immediately
    // reusable, so after the first iteration every allocation is an
    // in-place revival of the block retired one step earlier — a
    // retire stamp plus a free-list pop/push, no grace period.
    VbrDomain Domain;
    report(Report, "retire/vbr", 1,
           measureLoop(Base, [&] {
             bool Fresh = false;
             void *Mem = Domain.allocBlockFor<int>(Fresh);
             int *P = Fresh ? ::new (Mem) int(1)
                            : std::launder(static_cast<int *>(Mem));
             Domain.retireNode(P);
           }));
  }

  // Churn workloads: identical configs with the pool on and off. The
  // ScopedBypass scope contains the whole measurement — the list (and
  // every node it allocates) is created and destroyed inside it, which
  // is the containment rule the bypass requires.
  Base.UpdatePercent =
      static_cast<unsigned>(Flags.getInt("update-percent"));

  std::printf("list churn, %u%% updates, pool vs bypass:\n",
              Base.UpdatePercent);
  for (const std::string &Algo : Flags.getStringList("churn-algos")) {
    for (unsigned Range : Flags.getUnsignedList("churn-ranges")) {
      for (unsigned Threads : Flags.getUnsignedList("churn-threads")) {
        WorkloadConfig Config = Base;
        Config.KeyRange = Range;
        Config.Threads = Threads;

        BenchRecord Pooled =
            measurePoint("micro_reclaim", Algo, Config, /*WithLatency=*/false);
        Pooled.Structure = Algo + "+pool";
        BenchRecord Bypassed;
        {
          NodePool::ScopedBypass Bypass;
          Bypassed = measurePoint("micro_reclaim", Algo, Config,
                                  /*WithLatency=*/false);
        }
        Bypassed.Structure = Algo + "+bypass";
        Report.add(Pooled);
        Report.add(Bypassed);
        const double Ratio =
            Bypassed.ThroughputOpsPerSec > 0
                ? Pooled.ThroughputOpsPerSec / Bypassed.ThroughputOpsPerSec
                : 0.0;
        std::printf("  %-16s range %-6lld t=%u  pool %9.2f  bypass %9.2f "
                    "Kops/s  ratio %.2fx\n",
                    Algo.c_str(), static_cast<long long>(Config.KeyRange),
                    Threads, Pooled.ThroughputOpsPerSec / 1e3,
                    Bypassed.ThroughputOpsPerSec / 1e3, Ratio);
        for (const BenchRecord *Record : {&Pooled, &Bypassed}) {
          if (!Record->HasStats || Record->Stats.empty())
            continue;
          std::printf("    -- stats: %s --\n",
                      Record->Structure.c_str());
          std::fputs(stats::renderTable(Record->Stats, "      ").c_str(),
                     stdout);
        }
      }
    }
  }

  if (!Flags.getString("json").empty()) {
    Report.setContext("duration_ms", std::to_string(Base.DurationMs));
    Report.setContext("repeats", std::to_string(Base.Repeats));
    if (!Report.writeFile(Flags.getString("json")))
      return 1;
  }
  return 0;
}
