//===- harness/Workload.cpp - Workload helpers ---------------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/Workload.h"

#include "support/CommandLine.h"

using namespace vbl;
using namespace vbl::harness;

WorkloadConfig vbl::harness::windowFromFlags(const FlagSet &Flags) {
  WorkloadConfig Config;
  Config.DurationMs = static_cast<unsigned>(Flags.getInt("duration-ms"));
  Config.WarmupMs = static_cast<unsigned>(Flags.getInt("warmup-ms"));
  Config.Repeats = static_cast<unsigned>(Flags.getInt("repeats"));
  Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  return Config;
}

size_t vbl::harness::prefill(ConcurrentSet &Set, SetKey KeyRange,
                             uint64_t Seed) {
  Xoshiro256 Rng(Seed ^ 0x5eedULL);
  // Decide membership per key first (so the resulting set depends only
  // on the seed), then insert in shuffled order: insertion order is
  // irrelevant for the lists but worst-case-degenerate for unbalanced
  // trees if ascending (Synchrobench also prepopulates randomly).
  std::vector<SetKey> Chosen;
  Chosen.reserve(static_cast<size_t>(KeyRange) / 2 + 8);
  for (SetKey Key = 0; Key != KeyRange; ++Key)
    if (Rng.nextPercent(50))
      Chosen.push_back(Key);
  for (size_t I = Chosen.size(); I > 1; --I)
    std::swap(Chosen[I - 1], Chosen[Rng.nextBounded(I)]);
  size_t Inserted = 0;
  for (SetKey Key : Chosen)
    Inserted += Set.insert(Key);
  return Inserted;
}
