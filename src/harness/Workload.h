//===- harness/Workload.h - Synchrobench-style workload definition -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's experimental methodology (§4), reproduced: a workload is
/// x% updates (split evenly between insert and remove) and (100-x)%
/// contains, keys uniform over a fixed range, the list pre-populated
/// with each key present with probability 1/2 (so the steady-state size
/// is about half the range).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_HARNESS_WORKLOAD_H
#define VBL_HARNESS_WORKLOAD_H

#include "core/SetConfig.h"
#include "lists/SetInterface.h"
#include "support/Compiler.h"
#include "support/Random.h"
#include "sync/Policy.h"

#include <cstdint>

namespace vbl {

class FlagSet;

namespace harness {

struct WorkloadConfig {
  /// x: percentage of update operations (x/2 insert + x/2 remove).
  unsigned UpdatePercent = 20;
  /// Keys are drawn uniformly from [0, KeyRange).
  SetKey KeyRange = 50;
  unsigned Threads = 1;
  /// Measured window per repetition.
  unsigned DurationMs = 100;
  /// Unmeasured warm-up before each measured window.
  unsigned WarmupMs = 30;
  /// Repetitions; the reported figure is the mean (the paper uses 5).
  unsigned Repeats = 3;
  uint64_t Seed = 42;
};

/// One thread's operation picker. Matches the paper's split exactly:
/// updates are x%, half insert and half remove.
class OpPicker {
public:
  explicit OpPicker(unsigned UpdatePercent)
      : UpdatePercent(UpdatePercent) {}

  SetOp pick(Xoshiro256 &Rng) const {
    const uint64_t Roll = Rng.nextBounded(100);
    if (Roll >= UpdatePercent)
      return SetOp::Contains;
    // Independent fair coin for the insert/remove split. Reusing Roll
    // ("Roll * 2 < UpdatePercent") skews odd percentages — at x=5 the
    // update slice {0..4} gave 3 inserts to 2 removes, drifting the
    // steady-state set size above range/2 and understating traversal
    // cost at exactly the low-update settings the paper sweeps.
    return Rng.nextBounded(2) == 0 ? SetOp::Insert : SetOp::Remove;
  }

private:
  unsigned UpdatePercent;
};

/// A config whose window (DurationMs, WarmupMs, Repeats, Seed) comes
/// from the --duration-ms, --warmup-ms, --repeats and --seed flags of a
/// bench; the caller fills in the workload.
WorkloadConfig windowFromFlags(const FlagSet &Flags);

/// Applies the point op \p Op to \p Key and returns \p Op: the last
/// step of every op source (harness/Runner.h).
inline SetOp applyOp(ConcurrentSet &Set, SetOp Op, SetKey Key) {
  switch (Op) {
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
    vbl_unreachable("applyOp takes point ops only");
  }
  return Op;
}

/// Pre-populates \p Set: each key in [0, KeyRange) present with
/// probability 1/2 (§4's methodology). Returns the number inserted.
size_t prefill(ConcurrentSet &Set, SetKey KeyRange, uint64_t Seed);

} // namespace harness
} // namespace vbl

#endif // VBL_HARNESS_WORKLOAD_H
