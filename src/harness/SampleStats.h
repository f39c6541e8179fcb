//===- harness/SampleStats.h - Summary statistics for benchmark samples --===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accumulates benchmark samples and reports mean / stddev / min / max /
/// percentiles. The paper reports the mean over 5 runs per point; the
/// harness uses this class to do the same and to expose run-to-run noise.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_HARNESS_SAMPLESTATS_H
#define VBL_HARNESS_SAMPLESTATS_H

#include <cstddef>
#include <vector>

namespace vbl {

/// Collects double-valued samples; all queries are over whatever has been
/// added so far. Percentile queries sort a copy, so they are intended for
/// end-of-run reporting, not hot paths.
class SampleStats {
public:
  void add(double Sample) { Samples.push_back(Sample); }
  void clear() { Samples.clear(); }

  size_t count() const { return Samples.size(); }
  bool empty() const { return Samples.empty(); }

  double mean() const;
  /// Sample (n-1) standard deviation; 0 for fewer than two samples.
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolated percentile, P in [0,100].
  double percentile(double P) const;

  const std::vector<double> &samples() const { return Samples; }

private:
  std::vector<double> Samples;
};

} // namespace vbl

#endif // VBL_HARNESS_SAMPLESTATS_H
