//===- service/FlatCombiner.h - Per-shard flat-combining core ------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat combining for one service shard (Hendler et al.'s scheme, cut
/// down to the sharded-set use case): each session owns a cache-line
/// publication slot; to run a batch it publishes the batch pointer and
/// then either observes its slot drained by another session's combine
/// round, or acquires the shard's combiner lock and drains EVERY
/// published slot itself under one lock epoch. One lock acquisition
/// therefore pays for all waiters' batches, and the combiner walks hot
/// list prefixes with a warm cache on behalf of everyone.
///
/// Correctness does not depend on combining being exclusive: the
/// backend is a linearizable concurrent set, so ops applied by a
/// combiner and ops applied directly (the path of sessions beyond the
/// slot array) interleave safely — which is exactly what the
/// combiner-vs-direct handoff scenario explores under the deterministic
/// scheduler. What combining buys is amortization, not safety.
///
/// The core is policy-templated like the lists: DirectPolicy spins on
/// the slot's Done flag with bounded backoff; under a traced policy the
/// waiter parks on the combiner lock via Policy::lockAcquire (the
/// scheduler's blocked-on-lock state) instead of spinning unboundedly,
/// so every episode is finite and the InterleavingExplorer can walk the
/// protocol.
///
/// Slot protocol (all slot words policy-mediated, tagged MemField::Epoch
/// — synchronization substrate, not LL state):
///   waiter:   SlotBound >= idx+1 (raised once); Done=false (release);
///             Count (release); Ops (release)
///   combiner: SlotBound read once per round; for each slot below it,
///             Ops (acquire) != null -> Apply(Ops, Count);
///             Ops=null (release); Done=true (release)
///   waiter:   Done (acquire) == true -> results valid
/// The combiner nulls Ops before setting Done, and the slot's owner
/// republishes only after seeing Done — so exactly one side writes each
/// word at a time and the release/acquire pairs order the BatchOp
/// payload both ways.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_SERVICE_FLATCOMBINER_H
#define VBL_SERVICE_FLATCOMBINER_H

#include "core/BatchOp.h"
#include "stats/Stats.h"
#include "support/Compiler.h"
#include "sync/Policy.h"
#include "sync/SpinLocks.h"

#include <atomic>
#include <cstdint>
#include <span>

namespace vbl {
namespace service {

template <unsigned MaxSlotsV = 64, class LockT = TasLock>
class CombinerShard {
public:
  static constexpr unsigned MaxSlots = MaxSlotsV;

  /// Runs \p Count ops through the combining protocol and returns once
  /// every op's Result is filled. \p SlotIdx must be < MaxSlots and
  /// owned exclusively by the calling session. \p Apply is invoked —
  /// by this thread or by another session acting as combiner — as
  /// Apply(BatchOp *, uint32_t) and must fill each op's Result.
  template <class PolicyT, class ApplyFn>
  void execute(unsigned SlotIdx, BatchOp *Ops, uint32_t Count,
               ApplyFn &&Apply) {
    Slot &S = Slots[SlotIdx];
    raiseSlotBound<PolicyT>(SlotIdx + 1);
    PolicyT::write(S.Done, false, std::memory_order_release, &S,
                   MemField::Epoch);
    PolicyT::write(S.Count, Count, std::memory_order_release, &S,
                   MemField::Epoch);
    PolicyT::write(S.Ops, Ops, std::memory_order_release, &S,
                   MemField::Epoch);
    if constexpr (PolicyT::Traced) {
      // Bounded wait for the scheduler: park on the combiner lock (the
      // explorer's blocked-on-lock state) instead of spinning on Done.
      for (;;) {
        if (PolicyT::read(S.Done, std::memory_order_acquire, &S,
                          MemField::Epoch)) {
          stats::bump(stats::Counter::ServiceCombineHandoffs);
          return;
        }
        PolicyT::lockAcquire(CombinerLock, this);
        if (PolicyT::read(S.Done, std::memory_order_acquire, &S,
                          MemField::Epoch)) {
          // A previous combiner drained us between the check and the
          // acquisition; nothing of ours is pending.
          PolicyT::lockRelease(CombinerLock, this);
          stats::bump(stats::Counter::ServiceCombineHandoffs);
          return;
        }
        combineLocked<PolicyT>(Apply);
        PolicyT::lockRelease(CombinerLock, this);
        return;
      }
    } else {
      SpinBackoff Backoff;
      for (;;) {
        if (PolicyT::read(S.Done, std::memory_order_acquire, &S,
                          MemField::Epoch)) {
          stats::bump(stats::Counter::ServiceCombineHandoffs);
          return;
        }
        if (PolicyT::lockTryAcquire(CombinerLock, this)) {
          if (PolicyT::read(S.Done, std::memory_order_acquire, &S,
                            MemField::Epoch)) {
            PolicyT::lockRelease(CombinerLock, this);
            stats::bump(stats::Counter::ServiceCombineHandoffs);
            return;
          }
          combineLocked<PolicyT>(Apply);
          PolicyT::lockRelease(CombinerLock, this);
          return;
        }
        Backoff.spin();
      }
    }
  }

private:
  struct alignas(CacheLineBytes) Slot {
    std::atomic<BatchOp *> Ops{nullptr};
    std::atomic<uint32_t> Count{0};
    std::atomic<bool> Done{false};
  };

  /// Raises the slot high-water mark to at least \p Bound before the
  /// caller's publish. After a slot's first publish the mark already
  /// covers it, so the steady state is one read of a line nobody
  /// writes.
  template <class PolicyT> void raiseSlotBound(unsigned Bound) {
    unsigned Seen = PolicyT::read(SlotBound, std::memory_order_acquire,
                                  &SlotBound, MemField::Epoch);
    // A failed CAS reloads Seen; stop once any owner has raised it far
    // enough.
    while (Seen < Bound) {
      if (PolicyT::casStrong(SlotBound, Seen, Bound,
                             std::memory_order_release, &SlotBound,
                             MemField::Epoch))
        return;
    }
  }

  /// One lock epoch: scan the slots, apply every published batch, and
  /// rescan while work keeps arriving (bounded passes so the combiner's
  /// own session is not starved serving a steady publish stream).
  ///
  /// The scan stops at the slot high-water mark, read once per round:
  /// slots past it have never been published. A combiner misses a slot
  /// only if the slot was first published after this read, and then
  /// the slot's owner — which raised the mark before publishing — keeps
  /// spinning on lockTryAcquire (or parks on the lock under a traced
  /// policy) until it combines its own slot, whose index its own bound
  /// read covers. No payload is published through the mark (each Ops
  /// acquire orders its batch); its accesses are acquire/release like
  /// every other slot word, so the happens-before checker, which counts
  /// relaxed accesses as plain, sees a synchronization word.
  template <class PolicyT, class ApplyFn>
  void combineLocked(ApplyFn &&Apply) VBL_REQUIRES(CombinerLock) {
    const unsigned Bound = PolicyT::read(SlotBound, std::memory_order_acquire,
                                         &SlotBound, MemField::Epoch);
    uint64_t RoundOps = 0;
    for (unsigned Pass = 0; Pass != MaxCombinePasses; ++Pass) {
      unsigned PassSlots = 0;
      for (Slot &S : std::span(Slots, Bound)) {
        BatchOp *Ops = PolicyT::read(S.Ops, std::memory_order_acquire, &S,
                                     MemField::Epoch);
        if (!Ops)
          continue;
        const uint32_t Count = PolicyT::read(
            S.Count, std::memory_order_acquire, &S, MemField::Epoch);
        Apply(Ops, Count);
        PolicyT::write(S.Ops, static_cast<BatchOp *>(nullptr),
                       std::memory_order_release, &S, MemField::Epoch);
        PolicyT::write(S.Done, true, std::memory_order_release, &S,
                       MemField::Epoch);
        ++PassSlots;
        RoundOps += Count;
      }
      if (PassSlots == 0)
        break;
    }
    stats::bump(stats::Counter::ServiceCombineRounds);
    stats::bump(stats::Counter::ServiceOpsCombined, RoundOps);
    stats::histogramAdd(stats::Histogram::ServiceCombineOps, RoundOps);
  }

  static constexpr unsigned MaxCombinePasses = 3;

  LockT CombinerLock;
  /// One past the highest slot index ever published; raised by each
  /// slot's owner before its first publish, never lowered. Its own line:
  /// read on every execute and every round, written once per slot.
  alignas(CacheLineBytes) std::atomic<unsigned> SlotBound{0};
  alignas(CacheLineBytes) Slot Slots[MaxSlots];
};

} // namespace service
} // namespace vbl

#endif // VBL_SERVICE_FLATCOMBINER_H
