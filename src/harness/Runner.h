//===- harness/Runner.h - Timed throughput measurement -------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a workload against an algorithm and reports throughput, with
/// the paper's protocol: pre-populate, warm up, measure a fixed window,
/// repeat, average. A fresh list is built for every repetition so the
/// measured state is identical across algorithms and repeats.
/// runWindow is the one place the benches start workers and time a
/// window; runOnce and measureAlgorithm run it over an op source.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_HARNESS_RUNNER_H
#define VBL_HARNESS_RUNNER_H

#include "harness/SampleStats.h"
#include "harness/Workload.h"
#include "stats/Stats.h"
#include "support/Barrier.h"
#include "support/Compiler.h"
#include "support/Timing.h"

#include <atomic>
#include <chrono>
#include <concepts>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace vbl {
namespace harness {

struct RunResult {
  double OpsPerSecond = 0.0;
  uint64_t TotalOps = 0;
  double Seconds = 0.0;
  bool InvariantsHeld = true;
};

enum class Stage { WarmUp, Measure, Stop };

/// A window's stage: runWindow moves it forward, workers read it.
class StageFlag {
public:
  Stage current() const { return Value.load(std::memory_order_acquire); }
  void set(Stage S) { Value.store(S, std::memory_order_release); }

private:
  std::atomic<Stage> Value{Stage::WarmUp};
};

/// The measurement protocol every bench shares: spawns \p Threads
/// workers, releases them together, lets them warm up for \p WarmupMs,
/// measures for \p DurationMs, stops and joins them. Worker T runs
/// \p Body(T, Flag), which loops until Flag reads Stage::Stop and
/// returns the ops it completed while it read Stage::Measure; the
/// result is those ops over the measured time.
template <class BodyFn>
RunResult runWindow(unsigned Threads, unsigned WarmupMs,
                    unsigned DurationMs, BodyFn &&Body) {
  /// Per-thread count on its own cache line so counting never becomes
  /// the bottleneck being measured.
  struct alignas(CacheLineBytes) PaddedCount {
    uint64_t Value = 0;
  };
  StageFlag Flag;
  SpinBarrier Start(Threads + 1);
  std::vector<PaddedCount> Ops(Threads);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      Start.arriveAndWait();
      Ops[T].Value = Body(T, static_cast<const StageFlag &>(Flag));
    });

  Start.arriveAndWait();
  std::this_thread::sleep_for(std::chrono::milliseconds(WarmupMs));
  const uint64_t MeasureStart = nowNanos();
  Flag.set(Stage::Measure);
  std::this_thread::sleep_for(std::chrono::milliseconds(DurationMs));
  Flag.set(Stage::Stop);
  const uint64_t MeasureEnd = nowNanos();
  for (std::thread &Worker : Workers)
    Worker.join();

  RunResult Result;
  for (const PaddedCount &Count : Ops)
    Result.TotalOps += Count.Value;
  Result.Seconds = static_cast<double>(MeasureEnd - MeasureStart) * 1e-9;
  Result.OpsPerSecond =
      static_cast<double>(Result.TotalOps) / Result.Seconds;
  return Result;
}

/// Draws one op from the worker's generator, applies it to the set and
/// returns its kind. Each worker runs its own copy, so a source may
/// keep per-worker state.
template <class F>
concept OpSource =
    std::copy_constructible<F> &&
    requires(F Source, ConcurrentSet &Set, Xoshiro256 &Rng) {
      { Source(Set, Rng) } -> std::same_as<SetOp>;
    };

/// The paper's mix (§4): a key uniform over [0, KeyRange), then the
/// OpPicker's x% update split.
class UniformMix {
public:
  explicit UniformMix(const WorkloadConfig &Config)
      : Range(static_cast<uint64_t>(Config.KeyRange)),
        Picker(Config.UpdatePercent) {}

  SetOp operator()(ConcurrentSet &Set, Xoshiro256 &Rng) const {
    const SetKey Key = static_cast<SetKey>(Rng.nextBounded(Range));
    return applyOp(Set, Picker.pick(Rng), Key);
  }

private:
  uint64_t Range;
  OpPicker Picker;
};

/// Latency samples a worker keeps per op kind in a timed window; ops
/// past the cap still count toward the window's throughput.
inline constexpr size_t MaxLatencySamplesPerOp = 200000;

/// Per-operation latency samples (nanoseconds), split by operation
/// type. Filled by a timed runOnce; range scans are counted, not timed.
struct LatencyProfile {
  SampleStats Insert;
  SampleStats Remove;
  SampleStats Contains;

  /// Keeps \p Nanos under \p Op's kind until it holds the cap.
  void record(SetOp Op, uint64_t Nanos) {
    if (Op == SetOp::RangeQuery)
      return;
    SampleStats &Kind = Op == SetOp::Insert   ? Insert
                        : Op == SetOp::Remove ? Remove
                                              : Contains;
    if (Kind.count() < MaxLatencySamplesPerOp)
      Kind.add(static_cast<double>(Nanos));
  }

  /// Appends every sample of \p Other.
  void merge(const LatencyProfile &Other);
  /// Every op kind's samples in one set.
  SampleStats all() const;
};

/// One measured window of the op source \p Ops against an existing
/// (already prefilled) set; worker T draws from
/// Xoshiro256(Seed + 7919 * (T + 1)). With \p Profile, every measured
/// op is timed (two clock reads of overhead per op, so keep such
/// windows apart from throughput figures) and its latency lands in
/// Profile.
template <OpSource Source>
RunResult runOnce(ConcurrentSet &Set, const WorkloadConfig &Config,
                  const Source &Ops, LatencyProfile *Profile = nullptr) {
  std::vector<LatencyProfile> PerWorker(Profile ? Config.Threads : 0);
  RunResult Result = runWindow(
      Config.Threads, Config.WarmupMs, Config.DurationMs,
      [&](unsigned T, const StageFlag &Flag) {
        Source Mine = Ops;
        Xoshiro256 Rng(Config.Seed + 7919 * (T + 1));
        while (Flag.current() == Stage::WarmUp)
          Mine(Set, Rng);
        uint64_t Count = 0;
        if (!Profile) {
          for (; Flag.current() != Stage::Stop; ++Count)
            Mine(Set, Rng);
          return Count;
        }
        // Kept locally and handed over at the end: neighbouring
        // workers' vectors would share cache lines.
        LatencyProfile Kept;
        for (; Flag.current() != Stage::Stop; ++Count) {
          const uint64_t Begin = nowNanos();
          const SetOp Op = Mine(Set, Rng);
          Kept.record(Op, nowNanos() - Begin);
        }
        PerWorker[T] = std::move(Kept);
        return Count;
      });
  for (const LatencyProfile &Kept : PerWorker)
    Profile->merge(Kept);
  Result.InvariantsHeld = Set.checkInvariants();
  return Result;
}

/// runOnce over the paper's uniform mix.
inline RunResult runOnce(ConcurrentSet &Set, const WorkloadConfig &Config,
                         LatencyProfile *Profile = nullptr) {
  return runOnce(Set, Config, UniformMix(Config), Profile);
}

/// makeSet(\p Algorithm), prefilled over Config.KeyRange from
/// Config.Seed. Aborts the process on an unknown name.
std::unique_ptr<ConcurrentSet> makePrefilledSet(const std::string &Algorithm,
                                                const WorkloadConfig &Config);

/// Turns per-measurement counter collection on (the benches' --stats
/// flag). Off by default so snapshotting stays out of default runs;
/// forced off when the layer is compiled out (VBL_STATS=0).
void setStatsCollection(bool Enabled);
bool statsCollectionEnabled();

/// Opens a counter window: snapshotAll() when collection is on, else an
/// empty snapshot.
stats::Snapshot statsMark();
/// Counter delta since \p Mark; empty when collection is off.
stats::Snapshot statsSince(const stats::Snapshot &Mark);

/// Counter/histogram delta covering the most recent measureAlgorithm
/// call: prefill, warm-up and measured window of every repetition, all
/// threads. Empty when collection is off.
const stats::Snapshot &lastMeasuredStats();

namespace detail {
void setLastMeasuredStats(stats::Snapshot Delta);
[[noreturn]] void abortCorrupted(const std::string &Algorithm);
} // namespace detail

/// Full protocol for one (algorithm, config, op source) point: Repeats
/// fresh lists, repetition Rep prefilled and run from Seed + 1000003 *
/// Rep; returns the throughput samples (ops/second). Aborts the
/// process if the algorithm name is unknown or a structural invariant
/// breaks (a benchmark must never publish numbers from a corrupt
/// structure).
template <OpSource Source>
SampleStats measureAlgorithm(const std::string &Algorithm,
                             const WorkloadConfig &Config,
                             const Source &Ops) {
  // Deltas rather than raw totals: the process-wide counters span every
  // algorithm measured so far, and a bench sweeps many.
  const stats::Snapshot Mark = statsMark();
  SampleStats Throughput;
  for (unsigned Rep = 0; Rep != Config.Repeats; ++Rep) {
    WorkloadConfig RepConfig = Config;
    RepConfig.Seed = Config.Seed + 1000003ULL * Rep;
    const std::unique_ptr<ConcurrentSet> Set =
        makePrefilledSet(Algorithm, RepConfig);
    const RunResult Result = runOnce(*Set, RepConfig, Ops);
    if (!Result.InvariantsHeld)
      detail::abortCorrupted(Algorithm);
    Throughput.add(Result.OpsPerSecond);
  }
  detail::setLastMeasuredStats(statsSince(Mark));
  return Throughput;
}

/// measureAlgorithm over the paper's uniform mix.
inline SampleStats measureAlgorithm(const std::string &Algorithm,
                                    const WorkloadConfig &Config) {
  return measureAlgorithm(Algorithm, Config, UniformMix(Config));
}

} // namespace harness
} // namespace vbl

#endif // VBL_HARNESS_RUNNER_H
