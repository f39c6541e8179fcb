//===- harness/Runner.cpp - Timed throughput measurement -----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace vbl;
using namespace vbl::harness;

namespace {

bool CollectStats = false;
stats::Snapshot LastStats;

} // namespace

void LatencyProfile::merge(const LatencyProfile &Other) {
  for (auto [To, From] : {std::pair{&Insert, &Other.Insert},
                          std::pair{&Remove, &Other.Remove},
                          std::pair{&Contains, &Other.Contains}})
    for (double Sample : From->samples())
      To->add(Sample);
}

SampleStats LatencyProfile::all() const {
  SampleStats Samples = Insert;
  for (const SampleStats *Kind : {&Remove, &Contains})
    for (double Sample : Kind->samples())
      Samples.add(Sample);
  return Samples;
}

std::unique_ptr<ConcurrentSet>
vbl::harness::makePrefilledSet(const std::string &Algorithm,
                               const WorkloadConfig &Config) {
  std::unique_ptr<ConcurrentSet> Set = makeSet(Algorithm);
  if (!Set) {
    std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                 Algorithm.c_str());
    std::abort();
  }
  prefill(*Set, Config.KeyRange, Config.Seed);
  return Set;
}

void vbl::harness::setStatsCollection(bool Enabled) {
  CollectStats = Enabled && stats::Enabled;
}

bool vbl::harness::statsCollectionEnabled() { return CollectStats; }

stats::Snapshot vbl::harness::statsMark() {
  return CollectStats ? stats::snapshotAll() : stats::Snapshot();
}

stats::Snapshot vbl::harness::statsSince(const stats::Snapshot &Mark) {
  return CollectStats ? stats::snapshotAll().delta(Mark) : stats::Snapshot();
}

const stats::Snapshot &vbl::harness::lastMeasuredStats() {
  return LastStats;
}

void vbl::harness::detail::setLastMeasuredStats(stats::Snapshot Delta) {
  LastStats = std::move(Delta);
}

void vbl::harness::detail::abortCorrupted(const std::string &Algorithm) {
  std::fprintf(stderr,
               "error: %s corrupted its structure during the benchmark "
               "run\n",
               Algorithm.c_str());
  std::abort();
}
