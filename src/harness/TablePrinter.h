//===- harness/TablePrinter.h - Figure/table rendering -------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders one benchmark panel the way the paper's figures are read:
/// one row per thread count, one column per algorithm, cells in Mops/s,
/// plus derived ratio columns (e.g. vbl/lazy, the paper's headline
/// 1.6x).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_HARNESS_TABLEPRINTER_H
#define VBL_HARNESS_TABLEPRINTER_H

#include "harness/BenchJson.h"
#include "harness/Runner.h"

#include <string>
#include <vector>

namespace vbl {
namespace harness {

/// One figure panel: a thread sweep of several algorithms under one
/// workload.
class Panel {
public:
  Panel(std::string Title, std::vector<std::string> Algorithms,
        std::vector<unsigned> ThreadCounts);

  /// Stores the samples for (Threads, Algorithm).
  void setResult(unsigned Threads, const std::string &Algorithm,
                 const SampleStats &Stats);

  /// Runs the full sweep of \p Ops with \p Base (Threads field
  /// overwritten), keeping each cell's counter delta under --stats.
  template <OpSource Source>
  void measureAll(const WorkloadConfig &Base, const Source &Ops) {
    for (size_t T = 0; T != ThreadCounts.size(); ++T) {
      for (size_t A = 0; A != Algorithms.size(); ++A) {
        WorkloadConfig Config = Base;
        Config.Threads = ThreadCounts[T];
        Results[T][A] = measureAlgorithm(Algorithms[A], Config, Ops);
        if (statsCollectionEnabled())
          StatsResults[T][A] = lastMeasuredStats();
      }
    }
  }

  /// measureAll over the paper's uniform mix.
  void measureAll(const WorkloadConfig &Base) {
    measureAll(Base, UniformMix(Base));
  }

  /// Prints the panel as an aligned text table to stdout. When two or
  /// more algorithms are present the ratio first/second is appended —
  /// the paper's speedup column.
  void print() const;

  /// Appends this panel's series as vbl-bench-v1 records (bench = the
  /// panel title; latency fields null — the sweep measures throughput
  /// only). \p Base must be the config handed to measureAll: the
  /// per-point thread count comes from the panel, everything else from
  /// the config.
  void appendJson(BenchJsonReport &Report,
                  const WorkloadConfig &Base) const;

  double mean(unsigned Threads, const std::string &Algorithm) const;

private:
  size_t indexOf(const std::string &Algorithm) const;

  std::string Title;
  std::vector<std::string> Algorithms;
  std::vector<unsigned> ThreadCounts;
  std::vector<std::vector<SampleStats>> Results; // [thread][algo]
  /// Per-cell counter deltas, filled by measureAll when --stats is on
  /// (empty snapshots otherwise). print() renders them per structure;
  /// appendJson folds them into the records.
  std::vector<std::vector<stats::Snapshot>> StatsResults;
};

} // namespace harness
} // namespace vbl

#endif // VBL_HARNESS_TABLEPRINTER_H
