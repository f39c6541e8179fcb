//===- bench/service_throughput.cpp - Sharded front-end under skew -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The serving-scenario bench: a ShardedSet front-end driven by the
/// TrafficGen model (Zipfian skew, millions of simulated sessions,
/// optional open-loop bursts and a time-varying update mix) instead of
/// the synchrobench uniform loop. Sweeps access disciplines
/// (direct / batched / flat-combined) per backend and skew,
/// and reports throughput AND completion-latency percentiles (p50 /
/// p99 / p999) — a batched op's latency is measured enqueue to
/// flush-return, so queue dwell is part of the tail, not hidden.
///
/// Why batching wins under skew: the shard adapter sorts each batch
/// and applies it in ONE amortized list traversal under one reclaim
/// guard; at theta = 0.99 most ops target a handful of shards, so B
/// ops pay roughly one traversal instead of B.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"
#include "harness/Runner.h"
#include "service/ShardedSet.h"
#include "service/TrafficGen.h"
#include "support/CommandLine.h"
#include "support/Timing.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace vbl;
using namespace vbl::harness;
using namespace vbl::service;

namespace {

/// "pct:ops" parts of --mix-phases -> cyclic update-mix phases.
bool parsePhases(const std::vector<std::string> &Parts,
                 std::vector<MixPhase> &Out) {
  for (const std::string &Part : Parts) {
    const size_t Colon = Part.find(':');
    if (Colon == std::string::npos)
      return false;
    MixPhase P;
    P.UpdatePercent =
        static_cast<unsigned>(std::strtoul(Part.c_str(), nullptr, 10));
    P.Ops = std::strtoull(Part.c_str() + Colon + 1, nullptr, 10);
    if (P.UpdatePercent > 100 || P.Ops == 0)
      return false;
    Out.push_back(P);
  }
  return true;
}

struct ModeSpec {
  std::string Name;     // structure-name suffix
  unsigned BatchSize;   // 0 = take --batch
  CombineMode Combine;
};

bool parseMode(const std::string &Text, unsigned Batch, ModeSpec &Spec) {
  if (Text == "direct")
    Spec = {"direct", 1, CombineMode::Off};
  else if (Text == "batch")
    Spec = {"batch-b" + std::to_string(Batch), Batch, CombineMode::Off};
  else if (Text == "combine")
    Spec = {"combine", 1, CombineMode::On};
  else if (Text == "combine-batch")
    Spec = {"combine-b" + std::to_string(Batch), Batch, CombineMode::On};
  else
    return false;
  return true;
}

struct PointResult {
  SampleStats Throughput; // ops/s, one sample per repeat
  SampleStats Latency;    // ns, merged across threads and repeats
  bool InvariantsHeld = true;
};

struct RunConfig {
  TrafficConfig Traffic;
  WorkloadConfig Window; // threads, window, repeats and seed
};

/// One repetition: fresh front-end, prefilled, driven by one session
/// per worker through one measurement window.
void runRepeat(const ShardedSet::Options &Opts, const RunConfig &Run,
               uint64_t Seed, PointResult &Result) {
  std::string Error;
  auto Front = ShardedSet::create(Opts, &Error);
  if (!Front) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::abort();
  }
  prefill(*Front, Run.Traffic.KeyRange, Seed);

  // Samples per worker are capped; ops past the cap still count for
  // throughput but stop stamping tags.
  constexpr size_t MaxSamplesPerWorker = 1u << 20;
  std::vector<std::vector<double>> Samples(Run.Window.Threads);
  const RunResult Window = runWindow(
      Run.Window.Threads, Run.Window.WarmupMs, Run.Window.DurationMs,
      [&](unsigned W, const StageFlag &Flag) {
        TrafficConfig Cfg = Run.Traffic;
        Cfg.Seed = Seed;
        TrafficGen Gen(Cfg, W, Run.Window.Threads);
        ShardedSet::Session Session = Front->openSession();
        std::vector<double> &MySamples = Samples[W];
        MySamples.reserve(1u << 14);
        uint64_t Measured = 0;
        uint64_t NextArrival = 0; // open-loop pacing when gaps > 0
        const bool OpenLoop = Cfg.Arrivals.MeanGapNs > 0.0;
        for (;;) {
          const Stage Now = Flag.current();
          if (Now == Stage::Stop)
            break;
          const TrafficGen::Item It = Gen.next();
          if (OpenLoop) {
            // Arrival clock: never submit before the op's arrival
            // time; a backlogged worker (NextArrival in the past)
            // submits immediately and the dwell shows up in the
            // latency tail.
            NextArrival = (NextArrival ? NextArrival : nowNanos()) +
                          It.ArrivalGapNs;
            while (nowNanos() < NextArrival &&
                   Flag.current() != Stage::Stop) {
            }
          }
          const bool Stamp = Now == Stage::Measure &&
                             MySamples.size() < MaxSamplesPerWorker;
          Session.enqueue(It.Op, It.Key, Stamp ? nowNanos() : 0);
          for (const BatchOp &Done : Session.takeCompleted()) {
            if (Now == Stage::Measure)
              ++Measured;
            if (Done.Tag)
              MySamples.push_back(
                  static_cast<double>(nowNanos() - Done.Tag));
          }
        }
        // Drain the queues: dwell of already-stamped ops still belongs
        // in the tail, but completions past the window don't count
        // toward throughput.
        Session.flush();
        for (const BatchOp &Done : Session.takeCompleted())
          if (Done.Tag)
            MySamples.push_back(
                static_cast<double>(nowNanos() - Done.Tag));
        return Measured;
      });

  Result.Throughput.add(Window.OpsPerSecond);
  for (const std::vector<double> &S : Samples)
    for (double V : S)
      Result.Latency.add(V);
  if (!Front->checkInvariants())
    Result.InvariantsHeld = false;
}

void listBackends() {
  for (const SetDescription &D : registeredSetDescriptions())
    std::printf("%s\t%s\t%s\n", D.Name.c_str(), D.Describe.c_str(),
                D.FullKeyDomain ? "full" : "hash");
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Sharded serving front-end under skewed traffic");
  Flags.addStringList("backends", {"vbl"},
                      "comma-separated backend names");
  Flags.addUnsignedList("threads", {2, 8}, "worker thread counts");
  Flags.addInt("shards", 8, "shards per front-end");
  Flags.addStringList("theta", {"0", "0.99"},
                      "comma-separated Zipfian exponents");
  Flags.addInt("update-percent", 20, "percentage of updates");
  Flags.addInt("range", 16384, "key range");
  Flags.addInt("sessions", 4096, "simulated client sessions (total)");
  Flags.addInt("batch", 16, "ops per (session, shard) batch");
  Flags.addStringList("modes", {"direct", "batch", "combine-batch"},
                      "disciplines: direct,batch,combine,combine-batch");
  Flags.addInt("duration-ms", 120, "measured window");
  Flags.addInt("warmup-ms", 40, "unmeasured warmup");
  Flags.addInt("repeats", 3, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addInt("mean-gap-ns", 0,
               "open-loop mean interarrival gap; 0 = closed loop");
  Flags.addInt("burst-factor", 1, "burst-phase rate multiplier");
  Flags.addInt("burst-ops", 0, "arrivals per burst phase");
  Flags.addInt("calm-ops", 0, "arrivals per calm phase");
  Flags.addStringList("mix-phases", {},
                      "cyclic update mix, \"pct:ops,pct:ops,...\"");
  Flags.addBool("scramble", false, "hash Zipfian ranks over the range");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per point");
  Flags.addBool("list-backends", false,
                "print the backend registry (name, description, "
                "key domain) and exit");
  if (!Flags.parse(Argc, Argv))
    return 1;
  if (Flags.getBool("list-backends")) {
    listBackends();
    return 0;
  }
  setStatsCollection(Flags.getBool("stats"));

  const unsigned Batch =
      static_cast<unsigned>(Flags.getInt("batch"));
  std::vector<ModeSpec> Modes;
  for (const std::string &M : Flags.getStringList("modes")) {
    ModeSpec Spec;
    if (!parseMode(M, Batch, Spec)) {
      std::fprintf(stderr, "error: unknown mode '%s'\n", M.c_str());
      return 1;
    }
    Modes.push_back(Spec);
  }
  std::vector<double> Thetas;
  for (const std::string &T : Flags.getStringList("theta"))
    Thetas.push_back(std::strtod(T.c_str(), nullptr));
  std::vector<MixPhase> Phases;
  if (!parsePhases(Flags.getStringList("mix-phases"), Phases)) {
    std::fprintf(stderr, "error: bad --mix-phases\n");
    return 1;
  }

  RunConfig Run;
  Run.Window = windowFromFlags(Flags);
  Run.Traffic.KeyRange = Flags.getInt("range");
  Run.Traffic.Sessions =
      static_cast<uint64_t>(Flags.getInt("sessions"));
  Run.Traffic.UpdatePercent =
      static_cast<unsigned>(Flags.getInt("update-percent"));
  Run.Traffic.Phases = Phases;
  Run.Traffic.ScrambleKeys = Flags.getBool("scramble");
  Run.Traffic.Arrivals.MeanGapNs =
      static_cast<double>(Flags.getInt("mean-gap-ns"));
  Run.Traffic.Arrivals.BurstFactor =
      static_cast<double>(Flags.getInt("burst-factor"));
  Run.Traffic.Arrivals.BurstOps =
      static_cast<uint64_t>(Flags.getInt("burst-ops"));
  Run.Traffic.Arrivals.CalmOps =
      static_cast<uint64_t>(Flags.getInt("calm-ops"));

  BenchJsonReport Report;
  Report.setContext("bench_binary", "service_throughput");
  Report.setContext("shards", std::to_string(Flags.getInt("shards")));
  Report.setContext("sessions",
                    std::to_string(Flags.getInt("sessions")));

  std::printf("%-42s %8s %12s %9s %9s %9s\n", "structure", "threads",
              "ops/s", "p50(ns)", "p99(ns)", "p999(ns)");
  for (const std::string &Backend : Flags.getStringList("backends")) {
    for (double Theta : Thetas) {
      for (const ModeSpec &Mode : Modes) {
        for (unsigned Threads : Flags.getUnsignedList("threads")) {
          ShardedSet::Options Opts;
          Opts.Backend = Backend;
          Opts.Shards =
              static_cast<unsigned>(Flags.getInt("shards"));
          Opts.BatchSize = Mode.BatchSize;
          Opts.Combine = Mode.Combine;
          Run.Window.Threads = Threads;
          Run.Traffic.Theta = Theta;

          char ThetaBuf[32];
          std::snprintf(ThetaBuf, sizeof(ThetaBuf), "%g", Theta);
          const std::string Structure =
              Backend + "/z" + ThetaBuf + "/" + Mode.Name;

          const stats::Snapshot StatsMark = statsMark();
          PointResult Point;
          for (unsigned R = 0; R != Run.Window.Repeats; ++R)
            runRepeat(Opts, Run, Run.Window.Seed + R * 7919ULL, Point);
          const stats::Snapshot Delta = statsSince(StatsMark);
          if (!Point.InvariantsHeld) {
            std::fprintf(stderr,
                         "error: %s corrupted its structure\n",
                         Structure.c_str());
            return 1;
          }

          BenchRecord Record;
          Record.Bench = "service_throughput";
          Record.Structure = Structure;
          Record.Threads = Threads;
          Record.KeyRange = Run.Traffic.KeyRange;
          Record.UpdatePercent = Run.Traffic.UpdatePercent;
          Record.Repeats = Run.Window.Repeats;
          Record.ThroughputOpsPerSec =
              Point.Throughput.percentile(50);
          Record.ThroughputStddev = Point.Throughput.stddev();
          Record.setLatency(Point.Latency);
          if (!Delta.empty()) {
            Record.HasStats = true;
            Record.Stats = Delta;
          }
          std::printf("%-42s %8u %12.0f %9.0f %9.0f %9.0f\n",
                      Structure.c_str(), Threads,
                      Record.ThroughputOpsPerSec,
                      Record.HasLatency ? Record.P50LatencyNs : 0.0,
                      Record.HasLatency ? Record.P99LatencyNs : 0.0,
                      Record.HasLatency ? Record.P999LatencyNs : 0.0);
          if (!Delta.empty())
            std::fputs(stats::renderTable(Delta, "    ").c_str(),
                       stdout);
          Report.add(Record);
        }
      }
    }
  }

  if (!Flags.getString("json").empty())
    if (!Report.writeFile(Flags.getString("json")))
      return 1;
  return 0;
}
