//===- reclaim/HazardPointerDomain.h - Hazard-pointer reclamation --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Michael-style hazard pointers (SPAA 2002), the reclamation scheme the
/// Harris-Michael list was originally published with. Readers publish
/// each pointer they are about to dereference in a per-thread hazard
/// slot; retirement scans all slots and frees only unprotected pointers.
///
/// Compared to the default EpochDomain: bounded garbage (at most
/// #threads x slots survivors per scan) at the price of one seq_cst
/// store + re-validation per traversal hop, which is exactly the
/// metadata-traffic trade-off the reclamation benchmark quantifies.
///
/// Two amortization guarantees (each protects against a pathology the
/// regression tests in tests/HazardPointerTest pin down):
///
///  - Scan watermark: a scan that keeps K protected pointers raises the
///    next scan trigger to K + threshold, so pinned pointers cannot
///    force a full O(threads x slots) scan on every retire.
///  - Orphan adoption: retirees of exited threads (moved to the orphan
///    list on detach) are adopted in bounded batches by later retire()
///    pressure, so the orphan backlog drains without anyone having to
///    call collectAll().
///
/// The retired/freed/scan counts are owner-written cells of the thread
/// records, summed on demand, like the epoch and VBR domains' counts: a
/// retire writes nothing another thread reads on every operation.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_HAZARDPOINTERDOMAIN_H
#define VBL_RECLAIM_HAZARDPOINTERDOMAIN_H

#include "reclaim/DomainRegistry.h"
#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vbl {
namespace reclaim {

/// An independent hazard-pointer instance. Threads attach lazily;
/// Guard gives RAII slot management for one operation.
class HazardPointerDomain {
public:
  /// Marker the IsHazardDomain trait detects (see below).
  struct HazardReclaimTag {};

  static constexpr unsigned MaxThreads = 512;
  /// Slots per thread; the assignment is HazardSlot* below.
  static constexpr unsigned SlotsPerThread = 4;
  /// Default retire-list headroom between scans; constructor-overridable
  /// so the amortization tests can run with tiny lists.
  static constexpr size_t DefaultScanThreshold = 128;

  explicit HazardPointerDomain(size_t ScanThreshold = DefaultScanThreshold);
  ~HazardPointerDomain();

  HazardPointerDomain(const HazardPointerDomain &) = delete;
  HazardPointerDomain &operator=(const HazardPointerDomain &) = delete;

  class Guard;

  template <class T> void retire(T *Ptr) {
    retireRaw(Ptr, [](void *P) { delete static_cast<T *>(P); });
  }

  void retireRaw(void *Ptr, void (*Deleter)(void *));

  /// Scans and frees whatever is unprotected right now (teardown/tests).
  void collectAll();

  /// Sums over every thread record, exact once the counting threads are
  /// quiescent.
  uint64_t freedCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Freed);
  }
  uint64_t retiredCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Retired);
  }
  /// Full hazard-array scans performed so far (watermark test hook).
  uint64_t scanCount() const {
    return sumRecordCounts(Records, &ThreadRecord::Scans);
  }
  /// Retirees currently parked on the orphan list (backlog test hook).
  size_t orphanBacklog() const {
    return OrphanCount.load(std::memory_order_acquire);
  }

private:
  struct RetiredPtr {
    void *Ptr;
    void (*Deleter)(void *);
  };

  struct alignas(CacheLineBytes) ThreadRecord {
    std::atomic<void *> Hazards[SlotsPerThread] = {};
    std::atomic<bool> InUse{false};
    std::vector<RetiredPtr> RetireList; ///< Owner-thread-only.
    /// Retire-list size at which the next scan fires. 0 means "not yet
    /// scanned": retireRaw treats it as the domain threshold. Raised to
    /// kept + threshold after every scan so pinned survivors cannot
    /// trigger a scan per retire (owner-thread-only, like RetireList).
    size_t NextScanAt = 0;
    /// Pointers this record's owners retired and freed (their own or
    /// adopted orphans), and scans they ran. Owner-written
    /// (addOwnedCount), kept across recycling.
    std::atomic<uint64_t> Retired{0};
    std::atomic<uint64_t> Freed{0};
    std::atomic<uint64_t> Scans{0};
  };

  VBL_ALWAYS_INLINE ThreadRecord *attachCurrentThread() {
    return attachThreadRecord(DomainId, this, &detachTrampoline, Records,
                              &HighWater);
  }
  static void detachTrampoline(void *Domain, void *Record);
  void detach(ThreadRecord *Record);
  /// Scans hazards and frees unprotected entries of \p List, counting
  /// on \p Self (the calling thread's own record); returns how many
  /// entries survived (still protected).
  size_t scan(ThreadRecord *Self, std::vector<RetiredPtr> &List);
  void adoptOrphans(ThreadRecord *Record);

  const uint64_t DomainId;
  const size_t Threshold;
  std::atomic<uint32_t> HighWater{0};
  std::vector<ThreadRecord> Records;

  std::mutex OrphanMutex;
  std::vector<RetiredPtr> Orphans;
  /// Orphans.size(), readable without OrphanMutex so the retire fast
  /// path can skip adoption when there is no backlog.
  std::atomic<size_t> OrphanCount{0};

public:
  /// RAII wrapper around this thread's hazard slots. All slots are
  /// cleared on destruction, so one Guard per operation is the intended
  /// pattern.
  class Guard {
  public:
    explicit Guard(HazardPointerDomain &Domain)
        : Record(Domain.attachCurrentThread()) {}

    ~Guard() { clearAll(); }

    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

    /// Publishes protection for the pointer currently stored in \p Src
    /// and returns it. Loops until the published value matches a re-read
    /// of the source, which proves the pointer was reachable (hence not
    /// yet passed to retire) at the moment of protection.
    template <class T>
    T *protect(unsigned Slot, const std::atomic<T *> &Src) {
      VBL_ASSERT(Slot < SlotsPerThread, "hazard slot out of range");
      T *Ptr = Src.load(std::memory_order_acquire);
      for (;;) {
        // seq_cst store: must be visible to scanning threads before we
        // re-validate, otherwise scan could miss the protection.
        Record->Hazards[Slot].store(Ptr, std::memory_order_seq_cst);
        T *Again = Src.load(std::memory_order_seq_cst);
        if (Again == Ptr)
          return Ptr;
        Ptr = Again;
      }
    }

    /// Publishes an already-validated pointer (caller guarantees it is
    /// still reachable through some protected path).
    void set(unsigned Slot, void *Ptr) {
      VBL_ASSERT(Slot < SlotsPerThread, "hazard slot out of range");
      Record->Hazards[Slot].store(Ptr, std::memory_order_seq_cst);
    }

    void clear(unsigned Slot) {
      VBL_ASSERT(Slot < SlotsPerThread, "hazard slot out of range");
      Record->Hazards[Slot].store(nullptr, std::memory_order_release);
    }

    void clearAll() {
      for (unsigned I = 0; I != SlotsPerThread; ++I)
        Record->Hazards[I].store(nullptr, std::memory_order_release);
    }

  private:
    ThreadRecord *Record;
  };

  friend class Guard;
};

/// True for domains that protect individual pointers rather than whole
/// operations: a reader must publish each pointer in a hazard slot and
/// revalidate its source before dereferencing it. Structures branch on
/// this at compile time (HarrisMichaelList's per-hop protection,
/// SplitOrderedHashSet's index slot); epoch, leaky, VBR and tracking
/// guards protect by their mere existence and need no hook.
template <class DomainT>
inline constexpr bool IsHazardDomain =
    requires { typename DomainT::HazardReclaimTag; };

/// Hazard slot assignment, shared by every structure over this domain.
/// A list traversal holds curr and prev; the split-ordered hash layer
/// protects its bucket index in the top slot, so the two layers never
/// collide. Slot 2 is spare.
inline constexpr unsigned HazardSlotCurr = 0;
inline constexpr unsigned HazardSlotPrev = 1;
inline constexpr unsigned HazardSlotIndex = 3;
static_assert(HazardSlotIndex < HazardPointerDomain::SlotsPerThread);

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_HAZARDPOINTERDOMAIN_H
