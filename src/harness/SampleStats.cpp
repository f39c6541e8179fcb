//===- harness/SampleStats.cpp - Summary statistics ----------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/SampleStats.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cmath>

using namespace vbl;

double SampleStats::mean() const {
  VBL_ASSERT(!Samples.empty(), "mean of zero samples");
  double Sum = 0.0;
  for (double S : Samples)
    Sum += S;
  return Sum / static_cast<double>(Samples.size());
}

double SampleStats::stddev() const {
  if (Samples.size() < 2)
    return 0.0;
  const double M = mean();
  double SumSq = 0.0;
  for (double S : Samples)
    SumSq += (S - M) * (S - M);
  return std::sqrt(SumSq / static_cast<double>(Samples.size() - 1));
}

double SampleStats::min() const {
  VBL_ASSERT(!Samples.empty(), "min of zero samples");
  return *std::min_element(Samples.begin(), Samples.end());
}

double SampleStats::max() const {
  VBL_ASSERT(!Samples.empty(), "max of zero samples");
  return *std::max_element(Samples.begin(), Samples.end());
}

double SampleStats::percentile(double P) const {
  VBL_ASSERT(!Samples.empty(), "percentile of zero samples");
  VBL_ASSERT(P >= 0.0 && P <= 100.0, "percentile out of range");
  std::vector<double> Sorted(Samples);
  std::sort(Sorted.begin(), Sorted.end());
  if (Sorted.size() == 1)
    return Sorted.front();
  const double Rank = P / 100.0 * static_cast<double>(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(Rank);
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}
