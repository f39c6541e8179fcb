//===- maps/SplitOrderedHashSet.h - Resizable lock-free hash set ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A split-ordered hash set (Shalev & Shavit, JACM 2006) layered on the
/// repo's list substrates: all elements live in ONE ordered list, sorted
/// by split-order key (maps/SplitOrder.h), and the hash layer is nothing
/// but an array of shortcut pointers ("bucket index") into that list.
/// Resizing therefore never moves a node — doubling the table only adds
/// dummy nodes lazily, one per newly addressable bucket, spliced in
/// under the bucket's parent.
///
/// The substrate is pluggable: any list exposing the BucketHandle hooks
/// (insertFrom / removeFrom / containsFrom / getOrInsertSentinelFrom)
/// works. The repo registers backends on HarrisMichaelList over EBR
/// ("so-hash-hm-resize") and hazard pointers ("so-hash-hm-hp-resize"),
/// and on VblList over EBR ("so-hash-vbl-resize") and VBR
/// ("so-hash-vbl-vbr-resize"), so the paper's concurrency-optimal VBL
/// synchronization carries over to the sharded structure unchanged.
///
/// Bucket-index resizing — the grace-period table swap: the index is an
/// immutable-capacity array of atomic slots. A resize copies the
/// memoized slots into a new array (double capacity on grow, half on
/// shrink), publishes it with a release-CAS on the index pointer — the
/// single resizer is whoever wins that CAS; losers destroy their
/// never-published copy — and retires the displaced array through the
/// substrate's reclamation domain. Concurrent operations may still be
/// traversing the old array (they loaded the pointer before the swap),
/// so freeing in place would be a use-after-free; every operation
/// already brackets itself in a domain guard, so the domain's grace
/// period (EBR epoch, HP hazard scan, VBR teardown parking) is exactly
/// the right lifetime. A slot lost in the copy race (memoized
/// concurrently with the copy) is harmless: the slot array is pure
/// memoization of getOrInsertSentinelFrom, which always agrees on THE
/// unique dummy node for a bucket, so the next lookup re-initializes to
/// the same handle.
///
/// Shrinking leaves the dummies of the no-longer-addressable buckets in
/// the list as orphans — they are sentinels, never removed, and a
/// traversal from a coarser bucket's dummy simply walks past them (even
/// so-keys are skipped like deleted nodes). A later re-grow re-memoizes
/// the very same nodes via get-or-insert agreement. checkInvariants
/// therefore validates dummy addressability against the monotonic
/// high-water capacity (MaxCapacityEver), not the current capacity.
///
/// Hazard-pointer substrates (reclaim::IsHazardDomain) need one extra
/// discipline: the index pointer itself must sit in a hazard slot
/// (reclaim::HazardSlotIndex) while dereferenced, and the substrate's
/// per-operation guards share this thread's slot record — their
/// destructors clear every slot, including ours. So the hash layer
/// re-protects the index after every substrate call and, when the index
/// moved meanwhile, skips the (now possibly freed) old array and keeps
/// only the returned dummy handle, which is immortal and correct
/// independent of any index. See loadIndex/indexStillCurrent.
///
/// When to resize is the policy carried by HashSetConfig
/// (core/SetConfig.h): grow past GrowLoadFactor keys per bucket, shrink
/// once occupancy falls below 1/ShrinkDivisor of the grow trigger — the
/// hysteresis gap keeps a freshly swapped table from immediately
/// qualifying for the opposite swap. Construction validates the config
/// and refuses misconfiguration with a named HashSetConfigError instead
/// of silently rounding.
///
/// All shared accesses flow through the substrate's Policy, so the hash
/// layer runs under the deterministic scheduler and the happens-before
/// race detector exactly like the lists do (tests/maps).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_MAPS_SPLITORDEREDHASHSET_H
#define VBL_MAPS_SPLITORDEREDHASHSET_H

#include "analysis/FlowView.h"
#include "core/SetConfig.h"
#include "maps/SplitOrder.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/NodePool.h"
#include "stats/Stats.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace vbl {
namespace maps {

template <class SubstrateT> class SplitOrderedHashSet {
public:
  using Substrate = SubstrateT;
  using Reclaim = typename SubstrateT::Reclaim;
  using Policy = typename SubstrateT::Policy;
  using BucketHandle = typename SubstrateT::BucketHandle;
  using Guard = typename Reclaim::Guard;

  explicit SplitOrderedHashSet(const HashSetConfig &Config)
      : Cfg(validated(Config)), Domain(List.reclaimDomain()) {
    BucketIndex *Initial = BucketIndex::allocate(Cfg.InitialBuckets);
    // Bucket 0's dummy is the list head sentinel itself.
    Initial->Slots[0].store(List.headHandle(), std::memory_order_relaxed);
    Index.store(Initial, std::memory_order_release);
    MaxCapacityEver.store(Cfg.InitialBuckets, std::memory_order_relaxed);
  }

  SplitOrderedHashSet() : SplitOrderedHashSet(HashSetConfig{}) {}

  ~SplitOrderedHashSet() {
    BucketIndex::destroy(Index.load(std::memory_order_relaxed));
  }

  SplitOrderedHashSet(const SplitOrderedHashSet &) = delete;
  SplitOrderedHashSet &operator=(const SplitOrderedHashSet &) = delete;

  bool insert(SetKey Key) {
    VBL_ASSERT(so::isHashKey(Key), "hash-set keys must lie in [0, 2^62)");
    Guard G(Domain);
    if (!List.insertFrom(so::regularSoKey(Key), bucketForKey(Key, G)))
      return false;
    maybeGrow(adjustCount(+1), G);
    return true;
  }

  bool remove(SetKey Key) {
    VBL_ASSERT(so::isHashKey(Key), "hash-set keys must lie in [0, 2^62)");
    Guard G(Domain);
    if (!List.removeFrom(so::regularSoKey(Key), bucketForKey(Key, G)))
      return false;
    maybeShrink(adjustCount(-1), G);
    return true;
  }

  /// Non-const: a lookup may lazily splice the bucket's dummy node.
  bool contains(SetKey Key) {
    VBL_ASSERT(so::isHashKey(Key), "hash-set keys must lie in [0, 2^62)");
    Guard G(Domain);
    return List.containsFrom(so::regularSoKey(Key), bucketForKey(Key, G));
  }

  /// Quiescent-only: decoded user keys, ascending (dummies filtered).
  /// Range scan. Split order is bit-reversed hash order, not user-key
  /// order, so a window of user keys is scattered across the whole
  /// list: the scan walks the entire substrate once (the substrate's
  /// own linearizable scan, which skips dummies' even so-keys along
  /// with deleted nodes), decodes the regular so-keys, filters to
  /// [Lo, Hi] and sorts. O(n) whatever the window — the price of
  /// hashing; the flat and chunk lists are the range-friendly backends.
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) {
    VBL_ASSERT(so::isHashKey(Lo) && so::isHashKey(Hi),
               "hash-set keys must lie in [0, 2^62)");
    if (Lo > Hi)
      return 0;
    Guard G(Domain);
    // Regular so-keys occupy [MinSentinel+1, MaxSentinel-2]: mix62 stays
    // below 2^62, so the reversal leaves bit 1 clear and the tagged
    // value never reaches the sentinels (SplitOrder.h static_asserts).
    std::vector<SetKey> SoKeys;
    List.rangeQuery(MinSentinel + 1, MaxSentinel - 1, SoKeys);
    const size_t Entry = Out.size();
    for (SetKey SoKey : SoKeys) {
      if (!so::isRegularSoKey(SoKey))
        continue;
      const SetKey K = so::decodeRegular(SoKey);
      if (K >= Lo && K <= Hi)
        Out.push_back(K);
    }
    std::sort(Out.begin() + static_cast<ptrdiff_t>(Entry), Out.end());
    return Out.size() - Entry;
  }

  std::vector<SetKey> snapshot() const {
    std::vector<SetKey> Keys;
    for (SetKey SoKey : List.snapshot())
      if (so::isRegularSoKey(SoKey))
        Keys.push_back(so::decodeRegular(SoKey));
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  }

  /// Quiescent-only: substrate invariants plus hash-layer ones — the
  /// index capacity is a power of two within the configured bounds,
  /// slot 0 is the head, every initialized slot memoizes its own
  /// bucket's dummy, every dummy in the list was addressable under SOME
  /// index this set ever published (shrinking orphans dummies above the
  /// current capacity on purpose), and the element count matches.
  bool checkInvariants() const {
    if (!List.checkInvariants())
      return false;
    const BucketIndex *I = Index.load(std::memory_order_acquire);
    if (!I || !isPowerOfTwo(I->Capacity))
      return false;
    if (I->Capacity < Cfg.MinBuckets || I->Capacity > Cfg.MaxBuckets)
      return false;
    if (static_cast<const void *>(
            I->Slots[0].load(std::memory_order_acquire)) != List.headNode())
      return false;
    for (size_t B = 1; B < I->Capacity; ++B) {
      BucketHandle Handle = I->Slots[B].load(std::memory_order_acquire);
      if (Handle && Substrate::handleKey(Handle) != so::dummySoKey(B))
        return false;
    }
    const size_t Ever = MaxCapacityEver.load(std::memory_order_acquire);
    int64_t Regular = 0;
    for (SetKey SoKey : List.snapshot()) {
      if (so::isRegularSoKey(SoKey)) {
        ++Regular;
        continue;
      }
      if (so::bucketOfDummy(SoKey) >= Ever)
        return false;
    }
    return Regular == Count.load(std::memory_order_acquire);
  }

  size_t sizeSlow() const { return snapshot().size(); }

  /// Element count maintained by insert/remove (exact when quiescent).
  int64_t sizeFast() const {
    return Count.load(std::memory_order_acquire);
  }

  size_t bucketCount() const {
    return Index.load(std::memory_order_acquire)->Capacity;
  }

  /// Largest capacity any published index ever had (monotonic).
  size_t maxBucketCountEver() const {
    return MaxCapacityEver.load(std::memory_order_acquire);
  }

  const HashSetConfig &config() const { return Cfg; }

  Reclaim &reclaimDomain() { return Domain; }

  /// Tooling passthroughs (schedule exporters, explorer chain dumps).
  const void *headNode() const { return List.headNode(); }
  std::vector<std::pair<const void *, SetKey>> nodeChain() const {
    return List.nodeChain();
  }

  /// Flow-invariant self-description: every element and dummy lives in
  /// the one underlying list under split-order keys that stay strictly
  /// inside the sentinel range (maps/SplitOrder.h static_asserts), so
  /// the substrate's own flow view is exactly the oracle's input.
  analysis::FlowView flowView() const { return List.flowView(); }

  Substrate &substrate() { return List; }

private:
  /// Immutable-capacity array of memoized bucket handles; null slots are
  /// lazily initialized. Replaced wholesale on growth and shrinkage.
  struct BucketIndex {
    size_t Capacity = 0; // Power of two; immutable after publication.
    std::atomic<BucketHandle> *Slots = nullptr;

    static BucketIndex *allocate(size_t Capacity) {
      auto *I = reclaim::poolCreate<BucketIndex, Policy>();
      I->Capacity = Capacity;
      // Raw pool bytes with per-element placement-new (an array
      // new-expression could prepend a length cookie, overflowing an
      // exactly-sized pool block). Small tables recycle through the
      // pool; indices past 1 KiB take the pool's transparent heap path.
      void *Mem = reclaim::NodePool::allocate<Policy>(
          Capacity * sizeof(std::atomic<BucketHandle>),
          alignof(std::atomic<BucketHandle>));
      I->Slots = static_cast<std::atomic<BucketHandle> *>(Mem);
      for (size_t B = 0; B != Capacity; ++B) {
        ::new (static_cast<void *>(I->Slots + B))
            std::atomic<BucketHandle>();
        I->Slots[B].store(nullptr, std::memory_order_relaxed);
      }
      return I;
    }

    static void destroy(BucketIndex *I) {
      // Capacity is needed to recompute the block's size class; read it
      // before releasing the header. Atomics are trivially destructible.
      const size_t Capacity = I->Capacity;
      reclaim::NodePool::deallocate<Policy>(
          I->Slots, Capacity * sizeof(std::atomic<BucketHandle>),
          alignof(std::atomic<BucketHandle>));
      reclaim::poolDestroy<Policy>(I);
    }

    /// Type-erased deleter for Reclaim::retireRaw.
    static void destroyErased(void *I) {
      destroy(static_cast<BucketIndex *>(I));
    }
  };

  /// The index needs its own hazard slot (see loadIndex).
  static constexpr bool Hazard = reclaim::IsHazardDomain<Reclaim>;

  [[noreturn]] static void reportBadConfig(HashSetConfigError E) {
    std::fprintf(stderr,
                 "SplitOrderedHashSet: invalid HashSetConfig: %s\n",
                 hashSetConfigErrorName(E));
    std::abort();
  }

  static HashSetConfig validated(HashSetConfig C) {
    const HashSetConfigError E = validateHashSetConfig(C);
    if (E != HashSetConfigError::None)
      reportBadConfig(E);
    return C;
  }

  /// Current index, safe to dereference for the rest of the operation —
  /// provided no substrate call intervenes (see indexStillCurrent). HP
  /// publishes the pointer in a hazard slot; everywhere else the
  /// operation guard already covers any index the op can observe.
  BucketIndex *loadIndex(Guard &G) {
    if constexpr (Hazard) {
      // protect() loops store-then-revalidate internally until the slot
      // and the source agree, so the returned pointer cannot be freed
      // while the slot holds it.
      return G.protect(reclaim::HazardSlotIndex, Index);
    } else {
      (void)G;
      return Policy::read(Index, std::memory_order_acquire, &Index,
                          MemField::Next);
    }
  }

  /// True when \p I is still the published index AND still safe to
  /// dereference. Under HP a substrate call destroyed its inner guard,
  /// which clears every hazard slot of this thread — including the
  /// index slot — so a concurrent resize may have retired AND freed
  /// \p I meanwhile; re-protect and compare. Elsewhere the operation
  /// guard kept \p I alive, and writing a memo into a displaced index
  /// is merely wasted work, so "still current" is always true.
  bool indexStillCurrent(BucketIndex *I, Guard &G) {
    if constexpr (Hazard) {
      return G.protect(reclaim::HazardSlotIndex, Index) == I;
    } else {
      (void)I;
      (void)G;
      return true;
    }
  }

  /// Handle of the bucket that must anchor operations on \p Key under
  /// the current index.
  BucketHandle bucketForKey(SetKey Key, Guard &G) {
    BucketIndex *I = loadIndex(G);
    const size_t Cap = Policy::readValue(I->Capacity, I);
    const size_t B =
        static_cast<size_t>(so::mix62(static_cast<uint64_t>(Key))) &
        (Cap - 1);
    bool IndexStale = false;
    return bucketHandle(I, B, G, IndexStale);
  }

  /// Memoized-get-or-initialize of bucket \p B's dummy handle. The
  /// recursion splices missing dummies parent-first (parent = bucket
  /// with its top set bit cleared), which terminates at bucket 0 — the
  /// list head itself. \p IndexStale latches true once a hazard
  /// re-protect observes the index was swapped out from under the
  /// operation: from then on \p I may be freed memory, so the frames
  /// stop touching it (no memo reads, no memo CAS) and rely purely on
  /// get-or-insert agreement — the returned dummy handles are immortal
  /// and correct under ANY index.
  BucketHandle bucketHandle(BucketIndex *I, size_t B, Guard &G,
                            bool &IndexStale) {
    if (B == 0)
      return List.headHandle();
    if (!IndexStale) {
      BucketHandle Memo = Policy::read(
          I->Slots[B], std::memory_order_acquire, &I->Slots[B],
          MemField::Next);
      if (Memo)
        return Memo;
    }
    // One dummy splice, one parent link walked. In this
    // one-link-per-splice recursion the two totals coincide; the chain
    // counter is kept separate so a bulk-init strategy that probes
    // several ancestors per splice stays comparable.
    stats::bump(stats::Counter::MapBucketInits);
    stats::bump(stats::Counter::MapBucketInitChain);
    BucketHandle Parent = bucketHandle(I, so::parentBucket(B), G, IndexStale);
    BucketHandle Dummy =
        List.getOrInsertSentinelFrom(so::dummySoKey(B), Parent);
    if (!indexStillCurrent(I, G))
      IndexStale = true;
    if (!IndexStale) {
      // Losing this CAS means another thread memoized first;
      // get-or-insert agreement guarantees it memoized the same node,
      // so either way Dummy is THE handle for bucket B.
      BucketHandle Expected = nullptr;
      Policy::casStrong(I->Slots[B], Expected, Dummy,
                        std::memory_order_release, &I->Slots[B],
                        MemField::Next);
    }
    return Dummy;
  }

  /// Count is an acquire/acq_rel CAS loop rather than a relaxed
  /// fetch_add so concurrent updates stay ordered under the
  /// happens-before race detector (relaxed accesses count as plain).
  int64_t adjustCount(int64_t Delta) {
    int64_t Observed =
        Policy::read(Count, std::memory_order_acquire, &Count, MemField::Val);
    while (!Policy::casStrong(Count, Observed, Observed + Delta,
                              std::memory_order_acq_rel, &Count,
                              MemField::Val)) {
    }
    return Observed + Delta;
  }

  /// Monotonic high-water mark of published capacities; CAS-max because
  /// a grow after a deep shrink must not regress it.
  void noteCapacity(size_t Cap) {
    size_t Prev = Policy::read(MaxCapacityEver, std::memory_order_acquire,
                               &MaxCapacityEver, MemField::Val);
    while (Prev < Cap &&
           !Policy::casStrong(MaxCapacityEver, Prev, Cap,
                              std::memory_order_acq_rel, &MaxCapacityEver,
                              MemField::Val)) {
    }
  }

  /// Copy \p I's memoized slots [0, Count) into a fresh index of
  /// capacity \p NewCap (callers pass Count = min of the two).
  BucketIndex *copiedIndex(BucketIndex *I, size_t NewCap, size_t CopyCount) {
    BucketIndex *Fresh = BucketIndex::allocate(NewCap);
    Policy::onNewNode(Fresh, static_cast<int64_t>(NewCap));
    for (size_t B = 0; B != CopyCount; ++B) {
      BucketHandle Memo = Policy::read(
          I->Slots[B], std::memory_order_acquire, &I->Slots[B],
          MemField::Next);
      if (Memo)
        Policy::write(Fresh->Slots[B], Memo, std::memory_order_relaxed,
                      &Fresh->Slots[B], MemField::Next);
    }
    return Fresh;
  }

  /// Publish \p Fresh over \p Old. One CAS decides the single resizer;
  /// the loser destroys its never-published copy, the winner retires
  /// the displaced array through the grace-period domain (concurrent
  /// operations that loaded it before the swap still dereference it).
  bool installIndex(BucketIndex *Old, BucketIndex *Fresh) {
    BucketIndex *Expected = Old;
    if (!Policy::casStrong(Index, Expected, Fresh,
                           std::memory_order_release, &Index,
                           MemField::Next)) {
      stats::bump(stats::Counter::MapResizesLost);
      BucketIndex::destroy(Fresh); // Never published.
      return false;
    }
    noteCapacity(Fresh->Capacity);
    stats::bump(stats::Counter::MapResizeSegmentsRetired);
    Domain.retireRaw(Old, &BucketIndex::destroyErased);
    return true;
  }

  /// Doubles the bucket index when the load factor is exceeded. Many
  /// threads may race to resize; one CAS wins (see installIndex).
  void maybeGrow(int64_t NewCount, Guard &G) {
    BucketIndex *I = loadIndex(G);
    const size_t Cap = Policy::readValue(I->Capacity, I);
    if (NewCount <= 0 ||
        static_cast<uint64_t>(NewCount) <= Cap * Cfg.GrowLoadFactor ||
        Cap >= Cfg.MaxBuckets)
      return;
    BucketIndex *Grown = copiedIndex(I, Cap * 2, Cap);
    if (installIndex(I, Grown)) {
      stats::bump(stats::Counter::MapResizes);
      stats::bump(stats::Counter::MapResizeGrows);
    }
  }

  /// Halves the bucket index once occupancy falls below the hysteresis
  /// watermark (1/ShrinkDivisor of the grow trigger). The dummies of
  /// buckets [Cap/2, Cap) stay in the list as orphans — sentinels are
  /// never removed — and a later grow re-memoizes them via get-or-insert
  /// agreement.
  void maybeShrink(int64_t NewCount, Guard &G) {
    BucketIndex *I = loadIndex(G);
    const size_t Cap = Policy::readValue(I->Capacity, I);
    if (Cap <= Cfg.MinBuckets)
      return;
    const uint64_t Held =
        NewCount > 0 ? static_cast<uint64_t>(NewCount) : 0;
    if (Held * Cfg.ShrinkDivisor >= Cap * Cfg.GrowLoadFactor)
      return;
    BucketIndex *Shrunk = copiedIndex(I, Cap / 2, Cap / 2);
    if (installIndex(I, Shrunk))
      stats::bump(stats::Counter::MapResizeShrinks);
  }

  const HashSetConfig Cfg;
  SubstrateT List;
  Reclaim &Domain; // == List.reclaimDomain(); guards must be shared.
  std::atomic<BucketIndex *> Index{nullptr};
  std::atomic<int64_t> Count{0};
  /// Largest capacity ever published; dummy-addressability invariant
  /// bound (shrink orphans dummies above the current capacity).
  std::atomic<size_t> MaxCapacityEver{0};
};

} // namespace maps
} // namespace vbl

#endif // VBL_MAPS_SPLITORDEREDHASHSET_H
