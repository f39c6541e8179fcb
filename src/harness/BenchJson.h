//===- harness/BenchJson.h - Machine-readable benchmark records ----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON output for the bench harness, consumed by tools/run_benches.py
/// (suite runner) and tools/bench_compare.py (the CI perf-smoke gate).
/// One record per measured (bench, structure, threads, key_range,
/// update_pct) point; the file layout is
///
///   { "schema": "vbl-bench-v1",
///     "context": { "duration_ms": "...", ... },
///     "records": [ { "bench": ..., "structure": ...,
///                    "threads": ..., "key_range": ...,
///                    "update_pct": ..., "repeats": ...,
///                    "throughput_ops_s": ..., "throughput_stddev": ...,
///                    "p50_latency_ns": ...|null,
///                    "p99_latency_ns": ...|null,
///                    "p999_latency_ns": ...|null }, ... ] }
///
/// Latency percentiles are null for throughput-only sweeps (per-op
/// timing adds two clock reads per operation, so figure benches skip
/// it; measurePoint collects one dedicated latency repetition).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_HARNESS_BENCHJSON_H
#define VBL_HARNESS_BENCHJSON_H

#include "harness/Runner.h"

#include <string>
#include <utility>
#include <vector>

namespace vbl {
namespace harness {

/// One measured benchmark point.
struct BenchRecord {
  std::string Bench;
  std::string Structure;
  unsigned Threads = 1;
  SetKey KeyRange = 0;
  unsigned UpdatePercent = 0;
  unsigned Repeats = 0;
  double ThroughputOpsPerSec = 0.0;
  double ThroughputStddev = 0.0;
  bool HasLatency = false;
  double P50LatencyNs = 0.0;
  double P99LatencyNs = 0.0;
  double P999LatencyNs = 0.0;
  /// Sets the three percentiles from \p Samples (ns); they stay null
  /// when Samples is empty.
  void setLatency(const SampleStats &Samples);
  /// Counter delta for this point (--stats runs only). Serialized as a
  /// "stats" object appended to the record; readers that only know the
  /// base schema (bench_compare.py) ignore unknown keys.
  bool HasStats = false;
  stats::Snapshot Stats;
};

/// Accumulates records (and free-form context strings) and writes the
/// vbl-bench-v1 JSON document.
class BenchJsonReport {
public:
  void add(BenchRecord Record) { Records.push_back(std::move(Record)); }

  /// Adds a context key/value (duration, machine notes, ...). Keys are
  /// emitted in insertion order.
  void setContext(std::string Key, std::string Value);

  std::string toJson() const;

  /// Writes the document; returns false (with a message on stderr) on
  /// I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  std::vector<BenchRecord> Records;
  std::vector<std::pair<std::string, std::string>> Context;
};

namespace detail {
/// The record of one measured point: identity from \p Config, the
/// median and stddev of \p Throughput, and lastMeasuredStats() when
/// collection is on.
BenchRecord throughputRecord(const std::string &Bench,
                             const std::string &Structure,
                             const WorkloadConfig &Config,
                             const SampleStats &Throughput);
} // namespace detail

/// Full protocol for one point: throughput via measureAlgorithm
/// (Repeats fresh structures running \p Ops), plus — when
/// \p WithLatency — one extra timed repetition of the same source for
/// the latency percentiles across all operation types.
template <OpSource Source>
BenchRecord measurePoint(const std::string &Bench,
                         const std::string &Structure,
                         const WorkloadConfig &Config, const Source &Ops,
                         bool WithLatency = true) {
  BenchRecord Record = detail::throughputRecord(
      Bench, Structure, Config, measureAlgorithm(Structure, Config, Ops));
  if (!WithLatency)
    return Record;
  WorkloadConfig LatencyConfig = Config;
  LatencyConfig.Seed = Config.Seed + 777767777ULL;
  const std::unique_ptr<ConcurrentSet> Set =
      makePrefilledSet(Structure, LatencyConfig);
  LatencyProfile Profile;
  runOnce(*Set, LatencyConfig, Ops, &Profile);
  Record.setLatency(Profile.all());
  return Record;
}

/// measurePoint over the paper's uniform mix.
inline BenchRecord measurePoint(const std::string &Bench,
                                const std::string &Structure,
                                const WorkloadConfig &Config,
                                bool WithLatency = true) {
  return measurePoint(Bench, Structure, Config, UniformMix(Config),
                      WithLatency);
}

} // namespace harness
} // namespace vbl

#endif // VBL_HARNESS_BENCHJSON_H
