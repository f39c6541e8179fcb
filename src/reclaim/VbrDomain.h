//===- reclaim/VbrDomain.h - Version-based memory reclamation ------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Version-based reclamation (VBR, Sheffi/Herlihy/Petrank — PAPERS.md):
/// the fourth reclamation domain next to EBR, HP and leaky. Where EBR
/// buys safety with grace periods (a retired block is quarantined until
/// every possible reader has left its critical section), VBR reuses a
/// retired block *immediately* and instead makes readers detect that
/// the memory under them changed incarnation:
///
///  - The domain owns a version clock. Every operation records the
///    clock at its start (the Guard's start version `s`).
///  - Every block carries a birth epoch and a retire epoch in a header
///    line in front of the node. retire() stamps the clock into the
///    retire epoch and pushes the block onto a free list; a later
///    allocation revives the block in place and stamps a birth epoch
///    strictly greater than the retire epoch (bumping the clock when
///    the two would collide).
///  - A reader validates after reading a node's fields that the node's
///    birth epoch is <= s. Reuse during the operation forces birth > s
///    (the block it could reach was retired at >= s, and revival stamps
///    past the retire epoch), so the stale read is always caught; the
///    reader refreshes s and restarts. First-incarnation blocks keep
///    birth 0 and are never rejected — the clock only moves on
///    retire/reuse collisions, so rejects are as rare as same-epoch
///    block turnarounds.
///
/// Memory is *type-stable*: blocks come from the NodePool, are revived
/// in place (no destructor, no placement-new after the first
/// incarnation — revival re-stamps fields through atomic release
/// stores so a straggling reader's acquire loads are ordered, never
/// racing), and return to the pool only when the domain is destroyed.
///
/// Why revival must not placement-new: a stale reader may load a field
/// of the old incarnation concurrently with the revival. Constructor
/// writes are plain — a genuine C++ data race, and exactly what the
/// happens-before race detector flags. Release-storing each field over
/// the still-alive previous object keeps every conflicting pair atomic
/// (the detector's clean-pair rule) and gives the ordering the birth
/// check needs: a reader that observes a revived field value acquired
/// the release chain through the field store, which the birth stamp
/// precedes — so the reader's birth validation cannot miss the new
/// epoch.
///
/// The read-side cost profile is the domain's point: a Guard is one
/// acquire load of the clock (EBR pays a fence-bearing seq_cst
/// exchange per operation), retirement is one release store plus a
/// thread-local free-list push, and reuse hands back a cache-warm
/// block with no grace period — the properties that close the gap to
/// the leaky domain on update-heavy workloads (EXPERIMENTS.md). The
/// clock therefore sits on a cache line of its own, and the retired and
/// reused counts are owner-written cells of the thread records: nothing
/// a retire or a reuse writes shares the line every guard reads.
///
/// retireRaw (the type-erased hook the split-ordered hash layer uses
/// for displaced bucket-index segments) cannot be version-checked —
/// the caller's readers do not run the birth protocol — so those
/// retirees are parked and freed only at domain teardown. Displaced
/// index segments form a geometric series bounded by the final index
/// size, so the retention is bounded.
///
/// The domain is templated on the access policy like BasicEpochDomain:
/// clock reads, birth/retire stamps and the clock-bump CAS are policy-
/// mediated (MemField::Epoch), so instantiating with
/// sched::AnalyzedPolicy lets the deterministic scheduler drive
/// recycle-vs-traversal and stamp-vs-validate interleavings and the
/// race detector prove the revival protocol clean. Free lists and the
/// overflow mutex are private bookkeeping, exactly like EBR's retire
/// lists.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_VBRDOMAIN_H
#define VBL_RECLAIM_VBRDOMAIN_H

#include "reclaim/DomainRegistry.h"
#include "reclaim/NodePool.h"
#include "stats/Stats.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

namespace vbl {
namespace reclaim {

/// An independent VBR instance. Each concurrent set owns one; threads
/// attach lazily on first allocation/retirement and detach (donating
/// their free lists) at thread exit.
template <class PolicyT = DirectPolicy> class BasicVbrDomain {
public:
  using Policy = PolicyT;

  /// Marker the lists' IsVersionedDomain trait detects: structures built
  /// over this domain must run the birth-check read protocol.
  struct VersionedReclaimTag {};

  /// Upper bound on concurrently attached threads (slots recycle).
  static constexpr unsigned MaxThreads = MaxAttachedThreads;
  /// One header line in front of every node keeps the node's own
  /// cache-line alignment intact.
  static constexpr size_t HeaderBytes = CacheLineBytes;
  /// All VBR blocks are line-aligned: the pool's class ladder then
  /// guarantees the node at +HeaderBytes is line-aligned too.
  static constexpr size_t BlockAlign = CacheLineBytes;
  /// Per-thread, per-class free-list bound; past it blocks spill to the
  /// shared overflow so one churning thread cannot hoard every block.
  static constexpr size_t CacheCapPerClass = 128;
  /// Blocks moved per local<->shared transfer, amortizing the mutex.
  static constexpr size_t TransferBatch = 32;

  /// The per-block epoch header. Lives at the block base; the node
  /// starts at +HeaderBytes. Birth/Retire are policy-visible (a stale
  /// reader's birth validation races with revival by design); the
  /// free-list link and size are touched only by the block's current
  /// owner (or under the overflow mutex) while no reader can read them.
  struct alignas(CacheLineBytes) BlockHeader {
    std::atomic<uint64_t> Birth{0};
    std::atomic<uint64_t> Retire{0};
    BlockHeader *FreeNext = nullptr;
    uint32_t BlockBytes = 0;
  };
  static_assert(sizeof(BlockHeader) <= HeaderBytes,
                "the epoch header must fit its reserved line");

  BasicVbrDomain() : DomainId(registerDomain()) {}

  ~BasicVbrDomain() {
    // After this call no exiting thread will touch this domain again.
    unregisterDomain(DomainId);
    // Type-stability ends here: every recycled block goes back to the
    // pool. Blocks still owned by the data structure were disposed by
    // its destructor before the domain member is destroyed.
    for (uint32_t I = 0, HW = Records.highWater(); I != HW; ++I)
      for (unsigned C = 0; C != NodePool::NumClasses; ++C)
        freeChain(Records[I].Free[C]);
    {
      std::lock_guard<std::mutex> Lock(SharedMutex);
      for (unsigned C = 0; C != NodePool::NumClasses; ++C)
        freeChain(Shared[C].Head);
    }
    std::lock_guard<std::mutex> Lock(RawMutex);
    for (const RawRetiree &R : RawRetirees)
      R.Deleter(R.Ptr);
    RawRetirees.clear();
  }

  BasicVbrDomain(const BasicVbrDomain &) = delete;
  BasicVbrDomain &operator=(const BasicVbrDomain &) = delete;

  /// Maps a node pointer back to its epoch header.
  static BlockHeader *headerOf(const void *NodePtr) {
    return reinterpret_cast<BlockHeader *>(
        reinterpret_cast<uintptr_t>(NodePtr) - HeaderBytes);
  }

  /// The read-protocol check: true iff \p NodePtr's current incarnation
  /// began at or before \p Version. Wrap-aware (signed distance), so the
  /// clock may roll over u64 without ever mistaking an old birth for a
  /// new one. Read AFTER the node fields it certifies: field loads are
  /// acquire and revival stamps birth before re-storing fields, so a
  /// revived field value implies a visible new birth.
  bool validAt(const void *NodePtr, uint64_t Version) const {
    const BlockHeader *H = headerOf(NodePtr);
    const uint64_t B = Policy::read(H->Birth, std::memory_order_acquire, H,
                                    MemField::Epoch);
    // Birth 0 is a first incarnation, accepted at ANY version: its
    // fields were fully written before the publishing link swing, so no
    // reader can observe them half-revived. The unconditional accept
    // also keeps fresh blocks valid when the clock sits in the upper
    // signed half (the distance test alone would read 0 as "after the
    // wrap"). Revivals never stamp 0 — the clock bump skips it.
    return B == 0 || static_cast<int64_t>(B - Version) <= 0;
  }

  /// Allocates a block able to hold a T. Fresh == true: virgin memory,
  /// the caller placement-news. Fresh == false: the previous
  /// incarnation's T is still alive in place (never destructed) and the
  /// caller must revive it by release-storing every field; the birth
  /// epoch is already stamped (release) so those stores publish it.
  template <class T> void *allocBlockFor(bool &Fresh) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "VBR blocks are revived in place and freed raw; node "
                  "types must be trivially destructible");
    static_assert(alignof(T) <= BlockAlign,
                  "nodes may not demand more than line alignment");
    static_assert(HeaderBytes + sizeof(T) <= NodePool::MaxBlockBytes,
                  "VBR nodes must stay poolable");
    const int Class =
        NodePool::sizeClassFor(HeaderBytes + sizeof(T), BlockAlign);
    VBL_ASSERT(Class >= 0, "VBR block exceeds the pooled size classes");
    ThreadRecord *Record = attachCurrentThread();
    BlockHeader *H = popLocal(Record, static_cast<unsigned>(Class));
    if (H) {
      Fresh = false;
      stampBirth(H);
      addOwnedCount(Record->Reused);
      stats::bump(stats::Counter::VbrReused);
      return reinterpret_cast<char *>(H) + HeaderBytes;
    }
    Fresh = true;
    void *Mem =
        NodePool::allocate<Policy>(HeaderBytes + sizeof(T), BlockAlign);
    BlockHeader *NewH = ::new (Mem) BlockHeader();
    NewH->BlockBytes = static_cast<uint32_t>(HeaderBytes + sizeof(T));
    // Birth stays 0: a first incarnation can never be stale, so every
    // reader accepts it and the clock is untouched by fresh churn.
    stats::bump(stats::Counter::VbrFreshAllocs);
    return static_cast<char *>(Mem) + HeaderBytes;
  }

  /// Retires an unlinked node: stamp the retire epoch (release — the
  /// reuse path acquires it through the free list handoff) and make the
  /// block immediately reusable. No destructor runs, ever: straggling
  /// readers may still load the node's fields, which stay valid until
  /// revival re-stamps them.
  template <class T> void retireNode(T *Ptr) {
    VBL_ASSERT(Ptr, "retiring null");
    BlockHeader *H = headerOf(Ptr);
    const uint64_t C = Policy::read(Clock.Word, std::memory_order_acquire,
                                    &Clock.Word, MemField::Epoch);
    Policy::write(H->Retire, C, std::memory_order_release, H,
                  MemField::Epoch);
    ThreadRecord *Record = attachCurrentThread();
    addOwnedCount(Record->Retired);
    stats::bump(stats::Counter::VbrRetired);
    pushLocal(Record, classOf(H), H);
  }

  /// Returns a never-published node (a speculative insert that lost).
  /// No retire stamp: the block was unreachable in this incarnation, so
  /// the previous incarnation's retire epoch still bounds every reader
  /// that could hold the memory.
  template <class T> void abandonNode(T *Ptr) {
    if (!Ptr)
      return;
    BlockHeader *H = headerOf(Ptr);
    pushLocal(attachCurrentThread(), classOf(H), H);
  }

  /// Teardown-only (data-structure destructor, quiescent): hand the
  /// block straight back to the pool.
  template <class T> void disposeNode(T *Ptr) {
    if (!Ptr)
      return;
    BlockHeader *H = headerOf(Ptr);
    const size_t Bytes = H->BlockBytes;
    H->~BlockHeader();
    NodePool::deallocate<Policy>(H, Bytes, BlockAlign);
  }

  /// Type-erased retire for adapters (the split-ordered hash layer's
  /// bucket-index segments). Such memory carries no epoch header and
  /// its readers run no birth checks, so it is parked until teardown
  /// (bounded: displaced index segments sum below the final index).
  void retireRaw(void *Ptr, void (*Deleter)(void *)) {
    VBL_ASSERT(Ptr, "retiring null");
    addOwnedCount(attachCurrentThread()->Retired);
    stats::bump(stats::Counter::VbrRetired);
    std::lock_guard<std::mutex> Lock(RawMutex);
    RawRetirees.push_back({Ptr, Deleter});
  }

  /// Nothing is deferred in VBR — retirement already made the block
  /// reusable — so the EBR-shaped drain hook is a no-op. (Raw retirees
  /// deliberately wait for teardown; see retireRaw.)
  void collectAll() {}

  /// Observability for tests and the reclamation benchmarks: sums over
  /// every thread record, exact once the counting threads are quiescent.
  /// VBR frees nothing mid-life, so "freed" reports blocks whose memory
  /// was made reusable again by an in-place revival — the VBR analogue
  /// of a grace-period free.
  uint64_t freedCount() const { return reusedCount(); }
  uint64_t retiredCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Retired);
  }
  uint64_t reusedCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Reused);
  }

  uint64_t clock() const {
    return Clock.Word.load(std::memory_order_acquire);
  }

  /// Test hook: plants the version clock (e.g. at UINT64_MAX so the
  /// rollover scenarios cross the wrap). Quiescent use only; \p Value
  /// must be nonzero (0 is reserved for first-incarnation births).
  void setClockForTest(uint64_t Value) {
    VBL_ASSERT(Value != 0, "clock value 0 is reserved");
    Clock.Word.store(Value, std::memory_order_release);
  }

  /// RAII read-side section: one acquire load of the clock — the whole
  /// point of VBR versus EBR's fence-bearing announce exchange. The
  /// start version feeds every birth check of the operation; refresh()
  /// is called when a check fails (the operation restarts from a safe
  /// anchor with the newer snapshot).
  class Guard {
  public:
    explicit Guard(BasicVbrDomain &Domain) : Domain(Domain) {
      Version = Policy::read(Domain.Clock.Word, std::memory_order_acquire,
                             &Domain.Clock.Word, MemField::Epoch);
    }

    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

    uint64_t version() const { return Version; }

    /// Re-reads the clock after a birth check rejected a node. Counts
    /// the reject: every refresh is one detected stale read.
    uint64_t refresh() {
      stats::bump(stats::Counter::VbrBirthRejects);
      Version = Policy::read(Domain.Clock.Word, std::memory_order_acquire,
                             &Domain.Clock.Word, MemField::Epoch);
      return Version;
    }

  private:
    BasicVbrDomain &Domain;
    uint64_t Version;
  };

  friend class Guard;

private:
  struct alignas(CacheLineBytes) ThreadRecord {
    /// Slot ownership flag, claimed with CAS on attach.
    std::atomic<bool> InUse{false};
    /// Intrusive LIFO free list per size class. Owner-thread-only.
    std::array<BlockHeader *, NodePool::NumClasses> Free{};
    std::array<uint32_t, NodePool::NumClasses> Count{};
    /// Blocks this record's owners retired, and revived in place.
    /// Owner-written (addOwnedCount), kept across recycling.
    std::atomic<uint64_t> Retired{0};
    std::atomic<uint64_t> Reused{0};
  };

  struct SharedList {
    BlockHeader *Head = nullptr;
    size_t Count = 0;
  };

  struct RawRetiree {
    void *Ptr;
    void (*Deleter)(void *);
  };

  static unsigned classOf(const BlockHeader *H) {
    const int Class = NodePool::sizeClassFor(H->BlockBytes, BlockAlign);
    VBL_ASSERT(Class >= 0, "VBR header names an unpooled block");
    return static_cast<unsigned>(Class);
  }

  /// Revival epoch protocol: ensure birth lands strictly after the
  /// block's retire epoch. Only when the clock still equals the retire
  /// epoch — a same-epoch retire/reuse turnaround — must the clock move;
  /// that bump is what invalidates every reader whose start version
  /// could still reach the old incarnation.
  void stampBirth(BlockHeader *H) {
    const uint64_t R = Policy::read(H->Retire, std::memory_order_acquire, H,
                                    MemField::Epoch);
    uint64_t C = Policy::read(Clock.Word, std::memory_order_acquire,
                              &Clock.Word, MemField::Epoch);
    if (C == R) {
      // The clock skips 0 on rollover: birth 0 is reserved for first
      // incarnations, which validAt accepts unconditionally — a revival
      // stamping 0 would masquerade as one.
      uint64_t Bumped = C + 1;
      if (Bumped == 0)
        Bumped = 1;
      if (Policy::casStrong(Clock.Word, C, Bumped,
                            std::memory_order_acq_rel, &Clock.Word,
                            MemField::Epoch))
        stats::bump(stats::Counter::VbrClockBumps);
      // Either we advanced or a concurrent reviver did; both put the
      // clock past R.
      C = Policy::read(Clock.Word, std::memory_order_acquire, &Clock.Word,
                       MemField::Epoch);
    }
    // Release: the caller's field revival stores are also release, so a
    // reader that acquires any revived field observes this stamp too.
    Policy::write(H->Birth, C, std::memory_order_release, H,
                  MemField::Epoch);
  }

  BlockHeader *popLocal(ThreadRecord *Record, unsigned Class) {
    BlockHeader *H = Record->Free[Class];
    if (!H) {
      refillFromShared(Record, Class);
      H = Record->Free[Class];
      if (!H)
        return nullptr;
    }
    Record->Free[Class] = H->FreeNext;
    H->FreeNext = nullptr;
    --Record->Count[Class];
    return H;
  }

  void pushLocal(ThreadRecord *Record, unsigned Class, BlockHeader *H) {
    H->FreeNext = Record->Free[Class];
    Record->Free[Class] = H;
    if (++Record->Count[Class] >= CacheCapPerClass)
      spillToShared(Record, Class);
  }

  void refillFromShared(ThreadRecord *Record, unsigned Class) {
    std::lock_guard<std::mutex> Lock(SharedMutex);
    SharedList &List = Shared[Class];
    for (size_t I = 0; I != TransferBatch && List.Head; ++I) {
      BlockHeader *H = List.Head;
      List.Head = H->FreeNext;
      --List.Count;
      H->FreeNext = Record->Free[Class];
      Record->Free[Class] = H;
      ++Record->Count[Class];
    }
  }

  void spillToShared(ThreadRecord *Record, unsigned Class) {
    std::lock_guard<std::mutex> Lock(SharedMutex);
    SharedList &List = Shared[Class];
    for (size_t I = 0; I != TransferBatch && Record->Free[Class]; ++I) {
      BlockHeader *H = Record->Free[Class];
      Record->Free[Class] = H->FreeNext;
      --Record->Count[Class];
      H->FreeNext = List.Head;
      List.Head = H;
      ++List.Count;
    }
  }

  void freeChain(BlockHeader *&Head) {
    while (Head) {
      BlockHeader *H = Head;
      Head = H->FreeNext;
      const size_t Bytes = H->BlockBytes;
      H->~BlockHeader();
      NodePool::deallocate<Policy>(H, Bytes, BlockAlign);
    }
  }

  VBL_ALWAYS_INLINE ThreadRecord *attachCurrentThread() {
    return attachThreadRecord(DomainId, this, &detachTrampoline, Records);
  }

  static void detachTrampoline(void *Domain, void *Record) {
    static_cast<BasicVbrDomain *>(Domain)->detach(
        static_cast<ThreadRecord *>(Record));
  }

  /// Thread exit: donate the free lists so no block is stranded in a
  /// dead thread's cache, then release the slot.
  void detach(ThreadRecord *Record) {
    {
      std::lock_guard<std::mutex> Lock(SharedMutex);
      for (unsigned C = 0; C != NodePool::NumClasses; ++C) {
        while (Record->Free[C]) {
          BlockHeader *H = Record->Free[C];
          Record->Free[C] = H->FreeNext;
          H->FreeNext = Shared[C].Head;
          Shared[C].Head = H;
          ++Shared[C].Count;
        }
        Record->Count[C] = 0;
      }
    }
    Record->InUse.store(false, std::memory_order_release);
  }

  const uint64_t DomainId;
  /// The version clock, read by every guard and retire and written only
  /// by a same-epoch turnaround's bump: alone on its line (LineOwned).
  /// Starts above 0 so fresh blocks' birth 0 is strictly in the past of
  /// every possible start version.
  LineOwned<uint64_t> Clock{1};
  RecordTable<ThreadRecord> Records;

  std::mutex SharedMutex;
  std::array<SharedList, NodePool::NumClasses> Shared{};

  std::mutex RawMutex;
  std::vector<RawRetiree> RawRetirees;
};

/// The production VBR domain (direct, untraced accesses). Explicitly
/// instantiated in VbrDomain.cpp.
using VbrDomain = BasicVbrDomain<DirectPolicy>;

/// True for reclamation domains whose lists must run the birth-check
/// read protocol (conditionally-atomic key fields, per-hop validation,
/// revive-instead-of-construct allocation).
template <class DomainT>
inline constexpr bool IsVersionedDomain =
    requires { typename DomainT::VersionedReclaimTag; };

/// Node allocation for lists templated over any reclamation domain. A
/// fresh block (the NodePool under the grace-period domains, an unused
/// slab block under VBR) is constructed as T(Key) and announced through
/// PolicyT::onNewNode. A recycled VBR block is handed to \p Revive
/// instead, with no constructor: its previous incarnation may still be
/// read by a stale traversal, and its lock word and slab header are live
/// type-stable state. Revive(T *) must release-store every field the
/// new incarnation needs; the domain's birth stamp, published first,
/// orders those stores for any reader that sees them. It is a generic
/// lambda so that its body, which stores to fields that are only atomic
/// under VBR, is never instantiated for the other domains.
template <class T, class PolicyT, class DomainT, class ReviveFn>
T *domainCreate(DomainT &Domain, int64_t Key, ReviveFn &&Revive) {
  T *Node;
  if constexpr (IsVersionedDomain<DomainT>) {
    bool Fresh = false;
    void *Mem = Domain.template allocBlockFor<T>(Fresh);
    if (!Fresh) {
      Node = std::launder(static_cast<T *>(Mem));
      Revive(Node);
      return Node;
    }
    Node = ::new (Mem) T(Key);
  } else {
    (void)Domain;
    (void)Revive;
    Node = poolCreate<T, PolicyT>(Key);
  }
  PolicyT::onNewNode(Node, Key);
  return Node;
}

/// Retire dispatch: versioned domains stamp-and-recycle in place; the
/// grace-period domains quarantine with the pool deleter.
template <class PolicyT = DirectPolicy, class DomainT, class T>
void domainRetire(DomainT &Domain, T *Ptr) {
  if constexpr (IsVersionedDomain<DomainT>)
    Domain.retireNode(Ptr);
  else
    poolRetire<PolicyT>(Domain, Ptr);
}

/// Disposal of a node that was never published (null-safe): versioned
/// domains return the block to the free list without a retire stamp.
template <class PolicyT = DirectPolicy, class DomainT, class T>
void domainAbandon(DomainT &Domain, T *Ptr) {
  if constexpr (IsVersionedDomain<DomainT>)
    Domain.abandonNode(Ptr);
  else
    poolDestroy<PolicyT>(Ptr);
}

/// Teardown disposal from the data structure's destructor (quiescent,
/// null-safe).
template <class PolicyT = DirectPolicy, class DomainT, class T>
void domainDispose(DomainT &Domain, T *Ptr) {
  if constexpr (IsVersionedDomain<DomainT>)
    Domain.disposeNode(Ptr);
  else
    poolDestroy<PolicyT>(Ptr);
}

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_VBRDOMAIN_H
