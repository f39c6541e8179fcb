//===- reclaim/EpochDomain.h - Epoch-based memory reclamation ------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation (EBR), the default replacement for the JVM
/// garbage collector the paper relies on. The lists' wait-free traversals
/// may hold pointers to nodes that have been unlinked; EBR guarantees an
/// unlinked node is not freed until every thread that could have observed
/// it has left its read-side critical section.
///
/// Protocol (classic Fraser 3-epoch scheme):
///  - A global epoch counter advances when every attached thread that is
///    inside a guard has announced the current epoch.
///  - Guards announce the global epoch on entry and clear their active
///    flag on exit; guards nest.
///  - retire() stamps the pointer with the current global epoch. A
///    pointer retired in epoch e is freed once the global epoch reaches
///    e + 2: any reader that could still hold it announced at most e + 1.
///  - A thread that exits hands its retire list to the domain's orphan
///    list. The stamps travel with the pointers, so the collection that
///    every CollectThreshold-th retire triggers frees the safe orphans
///    as well as the retiring thread's own list; it skips the orphans
///    when another thread holds them, so a retire never blocks.
///
/// Read-side cost: a thread's activity flag and announced epoch share one
/// 64-bit word (bit 0 = active, bits 1+ = epoch), so guard entry is a
/// single fence-bearing `exchange` instead of the two seq_cst stores the
/// first implementation used. Because the epoch must be read *before*
/// composing the word, an advance can slip between the read and the
/// announcement; a validation loop re-reads the global epoch after the
/// exchange and re-announces until the two agree. Both halves of the race
/// stay safe:
///  - The advancer refuses to move the epoch while any active announce
///    word differs from the current epoch, so a stale announcement can
///    only *delay* reclamation (pin the epoch), never unpin memory.
///  - A reader whose announcement is one epoch behind still only holds
///    nodes it found by traversing from an immortal head after its
///    fence; any node retired in epoch r was unlinked before the global
///    epoch reached r + 1, and freeing it requires two further advances,
///    each of which scans (with seq_cst reads) the reader's announce
///    word after the reader's seq_cst announcement — so at most one
///    advance can miss an entering reader, which the e + 2 grace period
///    absorbs (it tolerates readers announcing one epoch late).
/// When the global epoch has not moved since this thread's previous
/// guard — the common case in a hot loop — the validation loop is
/// skipped entirely: re-announcing the identical word cannot pin
/// anything the previous guard did not already pin. Guard entry and
/// exit are always inlined; the validation loop is out of line.
///
/// Nothing written per operation shares the global epoch's line: the
/// epoch sits on a line of its own, and the retired/freed counts are
/// owner-written cells of each thread record, summed only when asked
/// for. A shared `lock add` counter beside the epoch would make every
/// retire invalidate every guard's epoch read.
///
/// The domain is templated on the repo's access-Policy concept. The
/// production alias `EpochDomain` uses DirectPolicy (zero overhead);
/// instantiating with sched::AnalyzedPolicy routes the announcement
/// protocol — guard entry exchange, guard exit release store, the
/// advancer's scan and the epoch CAS — through the deterministic
/// scheduler and the happens-before race detector, which is what lets
/// tests/analysis prove that recycling a node (reclaim/NodePool.h) into
/// a concurrent traversal is ordered: the reader's guard exit
/// release-writes its announce word, the advancing thread's scan
/// acquire-reads it, and only then can the free (and pool reuse) happen.
/// Only the announcement protocol is policy-visible; per-thread retire
/// lists, slot claims and the orphan list are private bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_EPOCHDOMAIN_H
#define VBL_RECLAIM_EPOCHDOMAIN_H

#include "reclaim/DomainRegistry.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vbl {
namespace reclaim {

/// An independent EBR instance. Each concurrent set owns one (or shares
/// one); threads attach lazily on first guard entry and detach
/// automatically at thread exit.
template <class PolicyT = DirectPolicy> class BasicEpochDomain {
public:
  using Policy = PolicyT;

  /// Upper bound on concurrently attached threads (slots recycle).
  static constexpr unsigned MaxThreads = MaxAttachedThreads;

  /// Retired pointers per thread that trigger a collection attempt.
  /// Small enough to bound floating garbage in the benchmarks, large
  /// enough that the scan cost amortizes.
  static constexpr size_t CollectThreshold = 128;

  BasicEpochDomain() : DomainId(registerDomain()) {}

  ~BasicEpochDomain() {
    // After this call no exiting thread will touch this domain again.
    unregisterDomain(DomainId);
    const uint32_t HW = Records.highWater();
    // No guard may be active: readers into freed nodes would be fatal.
    for (uint32_t I = 0; I != HW; ++I)
      VBL_ASSERT(
          (Records[I].Announce.load(std::memory_order_acquire) & 1) == 0,
          "EpochDomain destroyed while a guard is active");
    // Everything still pending is safe to free now.
    for (uint32_t I = 0; I != HW; ++I) {
      ThreadRecord &Record = Records[I];
      for (const RetiredPtr &R : Record.RetireList)
        R.Deleter(R.Ptr);
      Record.RetireList.clear();
    }
    std::lock_guard<std::mutex> Lock(OrphanMutex);
    for (const RetiredPtr &R : Orphans)
      R.Deleter(R.Ptr);
    Orphans.clear();
  }

  BasicEpochDomain(const BasicEpochDomain &) = delete;
  BasicEpochDomain &operator=(const BasicEpochDomain &) = delete;

  class Guard;

  /// Schedules \p Ptr for deletion once no reader can hold it. Must be
  /// called with a guard held (the unlink that made the node unreachable
  /// happened inside the same critical section).
  template <class T> void retire(T *Ptr) {
    retireRaw(Ptr, [](void *P) { delete static_cast<T *>(P); });
  }

  /// Type-erased retire for adapters (and the pool deleters).
  void retireRaw(void *Ptr, void (*Deleter)(void *)) {
    VBL_ASSERT(Ptr, "retiring null");
    ThreadRecord *Record = attachCurrentThread();
    Record->RetireList.push_back(
        {Ptr, Deleter,
         Policy::read(GlobalEpoch.Word, std::memory_order_acquire,
                      &GlobalEpoch.Word, MemField::Epoch)});
    addOwnedCount(Record->Retired);
    stats::bump(stats::Counter::EpochRetired);
    // Attempt collection every CollectThreshold retirements, not on every
    // retirement past the threshold: when a preempted reader pins an old
    // epoch, the latter degrades into a full record scan per retire.
    if (Record->RetireList.size() % CollectThreshold == 0)
      collect(Record);
  }

  /// Forces collection attempts until nothing more can be freed without
  /// another epoch advance. Test/teardown helper. The calling thread
  /// must not hold a guard: collectAll frees this thread's own retired
  /// nodes as soon as the epoch allows, which would pull memory out from
  /// under the caller's still-open critical section.
  void collectAll() {
    ThreadRecord *Record = attachCurrentThread();
    VBL_ASSERT(Record->Depth == 0,
               "collectAll called while the calling thread holds a guard");
    // Each advance can unlock one more epoch bucket; three rounds drain
    // everything when no other thread holds a guard.
    for (int Round = 0; Round != 3; ++Round) {
      tryAdvanceEpoch();
      const uint64_t Global =
          GlobalEpoch.Word.load(std::memory_order_acquire);
      freeSafe(Record, Record->RetireList, Global - 2);
      std::lock_guard<std::mutex> Lock(OrphanMutex);
      freeSafe(Record, Orphans, Global - 2);
      OrphanCount.store(Orphans.size(), std::memory_order_release);
    }
  }

  uint64_t globalEpoch() const {
    return GlobalEpoch.Word.load(std::memory_order_acquire);
  }

  /// Observability for tests and the reclamation benchmark: sums over
  /// every thread record, exact once the counting threads are quiescent.
  uint64_t freedCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Freed);
  }
  uint64_t retiredCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Retired);
  }

private:
  struct RetiredPtr {
    void *Ptr;
    void (*Deleter)(void *);
    uint64_t Epoch;
  };

  struct alignas(CacheLineBytes) ThreadRecord {
    /// Bit 0: the thread is inside a guard. Bits 1+: the epoch it
    /// announced at its outermost entry (meaningful only while bit 0 is
    /// set). One word so entry is a single RMW.
    std::atomic<uint64_t> Announce{0};
    /// Slot ownership flag, claimed with CAS on attach.
    std::atomic<bool> InUse{false};
    /// Guard nesting depth. Owner-thread-only: nesting is invisible to
    /// other threads (only bit 0 of Announce is), so this needs no
    /// atomicity.
    uint32_t Depth = 0;
    /// The word the last outermost guard announced (active bit set).
    /// Owner-thread-only. Lets the next entry skip epoch validation
    /// when the global epoch has not moved.
    uint64_t LastWord = 0;
    /// Owner-thread-only while attached; handed to the domain on detach.
    std::vector<RetiredPtr> RetireList;
    /// Pointers this record's owners retired, and freed (their own or
    /// orphans). Owner-written (addOwnedCount), kept across recycling.
    std::atomic<uint64_t> Retired{0};
    std::atomic<uint64_t> Freed{0};
  };
  static_assert(sizeof(ThreadRecord) == CacheLineBytes,
                "an EBR thread record is one line");

  VBL_ALWAYS_INLINE ThreadRecord *attachCurrentThread() {
    return attachThreadRecord(DomainId, this, &detachTrampoline, Records);
  }

  static void detachTrampoline(void *Domain, void *Record) {
    static_cast<BasicEpochDomain *>(Domain)->detach(
        static_cast<ThreadRecord *>(Record));
  }

  void detach(ThreadRecord *Record) {
    VBL_ASSERT(Record->Depth == 0, "thread exited inside an epoch guard");
    if (!Record->RetireList.empty()) {
      std::lock_guard<std::mutex> Lock(OrphanMutex);
      Orphans.insert(Orphans.end(), Record->RetireList.begin(),
                     Record->RetireList.end());
      OrphanCount.store(Orphans.size(), std::memory_order_release);
    }
    Record->RetireList.clear();
    // Reset the owner-only state before releasing the slot: the next
    // thread claiming it must not inherit a stale LastWord (it would
    // wrongly skip epoch validation) or a phantom nesting depth.
    //
    // Announce is deliberately NOT reset. Depth == 0 means the last
    // guard exit already cleared the active bit, so scans skip this
    // slot either way — but detach runs from TLS teardown, concurrent
    // with everything, and overwriting the word here would (a) destroy
    // the release store the epoch-advance scan synchronizes with and
    // (b) make the value that scan observes depend on OS thread-exit
    // timing, which the deterministic replayer cannot tolerate. The
    // next owner's first guard entry overwrites it with an exchange
    // without ever reading it.
    VBL_ASSERT((Record->Announce.load(std::memory_order_relaxed) & 1) == 0,
               "thread detached with active announce bit set");
    Record->Depth = 0;
    Record->LastWord = 0;
    Record->InUse.store(false, std::memory_order_release);
  }

  /// Re-announces until the announced epoch matches a global-epoch read
  /// made *after* the announcement fence; on exit at most one concurrent
  /// advance can have missed the guard, which the retire grace period
  /// (e + 2) absorbs. Out of line: it runs only when the epoch moved
  /// since this thread's previous guard.
  VBL_NOINLINE void reannounce(ThreadRecord *Record, uint64_t Epoch) {
    uint64_t Word = (Epoch << 1) | 1;
    for (;;) {
      const uint64_t Now =
          Policy::read(GlobalEpoch.Word, std::memory_order_seq_cst,
                       &GlobalEpoch.Word, MemField::Epoch);
      if (Now == Epoch)
        break;
      Epoch = Now;
      Word = (Epoch << 1) | 1;
      Policy::exchange(Record->Announce, Word, std::memory_order_seq_cst,
                       Record, MemField::Epoch);
    }
    Record->LastWord = Word;
  }

  /// Tries to advance the global epoch, then frees everything in
  /// \p Record, and on the orphan list, that became safe.
  void collect(ThreadRecord *Record) {
    tryAdvanceEpoch();
    const uint64_t Global =
        GlobalEpoch.Word.load(std::memory_order_acquire);
    // Retired in epoch e, safe once Global >= e + 2: every reader active
    // now announced at least e + 1 > e after the unlink became visible.
    freeSafe(Record, Record->RetireList, Global - 2);
    if (OrphanCount.load(std::memory_order_acquire) == 0)
      return; // Common case: no backlog, no lock traffic.
    std::unique_lock<std::mutex> Lock(OrphanMutex, std::try_to_lock);
    if (!Lock.owns_lock())
      return; // Someone else is freeing them; don't serialize retire().
    freeSafe(Record, Orphans, Global - 2);
    OrphanCount.store(Orphans.size(), std::memory_order_release);
  }

  bool tryAdvanceEpoch() {
    const uint64_t Current =
        Policy::read(GlobalEpoch.Word, std::memory_order_seq_cst,
                     &GlobalEpoch.Word, MemField::Epoch);
    const uint32_t HW = Records.highWater();
    for (uint32_t I = 0; I != HW; ++I) {
      ThreadRecord &Record = Records[I];
      // Policy-visible read of EVERY slot up to the high-water mark,
      // even detached ones: reading the announce word a guard exit
      // release-stored is the edge that orders that reader's critical
      // section before any free (and pool recycle) this advance
      // enables. Skipping detached slots before this read would make
      // both the edge and the traced event stream depend on OS thread
      // exit timing, which the deterministic replayer cannot tolerate.
      const uint64_t Word =
          Policy::read(Record.Announce, std::memory_order_seq_cst, &Record,
                       MemField::Epoch);
      // Once a slot is reclaimed by a new thread, the word read above
      // may no longer be the departed reader's release store. The
      // acquire load of the ownership flag restores the chain for that
      // case (exit -> detach releases InUse -> claim acquires -> here);
      // the value is irrelevant, only the synchronization is.
      (void)Record.InUse.load(std::memory_order_acquire);
      if ((Word & 1) == 0)
        continue; // Not inside a guard (or slot unused/detached).
      if ((Word >> 1) != Current) {
        // A reader still sits in an older epoch: reclamation is pinned.
        // The lag histogram records how far behind it is.
        stats::bump(stats::Counter::EpochStalls);
        stats::histogramAdd(stats::Histogram::EpochLag,
                            Current - (Word >> 1));
        return false;
      }
    }
    uint64_t Expected = Current;
    if (Policy::casStrong(GlobalEpoch.Word, Expected, Current + 1,
                          std::memory_order_acq_rel, &GlobalEpoch.Word,
                          MemField::Epoch))
      stats::bump(stats::Counter::EpochAdvances);
    // Either we advanced or someone else did; both count as progress.
    return true;
  }

  /// Frees the entries of \p List retired at or before \p SafeEpoch,
  /// counting them on \p Record (the calling thread's own).
  void freeSafe(ThreadRecord *Record, std::vector<RetiredPtr> &List,
                uint64_t SafeEpoch) {
    size_t Kept = 0;
    uint64_t FreedHere = 0;
    for (size_t I = 0, E = List.size(); I != E; ++I) {
      if (List[I].Epoch <= SafeEpoch) {
        List[I].Deleter(List[I].Ptr);
        ++FreedHere;
        continue;
      }
      List[Kept++] = List[I];
    }
    List.resize(Kept);
    if (FreedHere) {
      addOwnedCount(Record->Freed, FreedHere);
      stats::bump(stats::Counter::EpochFreed, FreedHere);
    }
  }

  const uint64_t DomainId;
  /// Read by every guard entry and retire, written only by an advance:
  /// alone on its line (LineOwned).
  LineOwned<uint64_t> GlobalEpoch{2};
  RecordTable<ThreadRecord> Records;

  /// Retire lists of threads that exited while the domain lives on.
  std::mutex OrphanMutex;
  std::vector<RetiredPtr> Orphans;
  /// Orphans.size(), readable without OrphanMutex so a collection can
  /// skip the orphan list when it is empty.
  std::atomic<size_t> OrphanCount{0};

public:
  /// RAII read-side critical section. Entering pins the current global
  /// epoch for this thread; nodes unlinked before entry may be freed,
  /// nodes unlinked after entry will not be freed until exit.
  class Guard {
  public:
    VBL_ALWAYS_INLINE explicit Guard(BasicEpochDomain &Domain)
        : Domain(Domain), Record(Domain.attachCurrentThread()) {
      if (Record->Depth != 0) {
        // Nested guard: the outermost entry already announced.
        ++Record->Depth;
        return;
      }
      Record->Depth = 1;
      const uint64_t Epoch =
          Policy::read(Domain.GlobalEpoch.Word, std::memory_order_acquire,
                       &Domain.GlobalEpoch.Word, MemField::Epoch);
      const uint64_t Word = (Epoch << 1) | 1;
      // One fence-bearing RMW publishes both the active bit and the
      // epoch (the first implementation paid two seq_cst stores here).
      Policy::exchange(Record->Announce, Word, std::memory_order_seq_cst,
                       Record, MemField::Epoch);
      // When the global epoch has not moved since this thread's previous
      // guard, validation cannot observe anything new: re-announcing the
      // identical word pins exactly what the previous guard pinned. This
      // is the hot-loop fast path. Otherwise an advance may have slipped
      // between the epoch read and the exchange.
      if (VBL_UNLIKELY(Word != Record->LastWord))
        Domain.reannounce(Record, Epoch);
    }

    VBL_ALWAYS_INLINE ~Guard() {
      VBL_ASSERT(Record->Depth > 0, "guard exit without matching entry");
      if (--Record->Depth != 0)
        return;
      // Clear only the active bit, keeping the epoch for the next
      // entry's skip check. Release so the epoch-advancer observing the
      // cleared bit also observes every read this critical section
      // performed as complete — the edge that makes a subsequent node
      // recycle race-free.
      Policy::write(Record->Announce, Record->LastWord & ~uint64_t(1),
                    std::memory_order_release, Record, MemField::Epoch);
    }

    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

  private:
    [[maybe_unused]] BasicEpochDomain &Domain;
    ThreadRecord *Record;
  };

  friend class Guard;
};

/// The production EBR domain (direct, untraced accesses). Explicitly
/// instantiated in EpochDomain.cpp.
using EpochDomain = BasicEpochDomain<DirectPolicy>;

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_EPOCHDOMAIN_H
