//===- reclaim/HazardPointerDomain.cpp - Hazard-pointer reclamation ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "reclaim/HazardPointerDomain.h"

#include "stats/Stats.h"

#include <algorithm>

using namespace vbl;
using namespace vbl::reclaim;

HazardPointerDomain::HazardPointerDomain(size_t ScanThreshold)
    : DomainId(registerDomain()), Threshold(ScanThreshold) {
  VBL_ASSERT(Threshold != 0, "scan threshold must be positive");
}

HazardPointerDomain::~HazardPointerDomain() {
  unregisterDomain(DomainId);
  for (uint32_t I = 0, HW = Records.highWater(); I != HW; ++I) {
    ThreadRecord &Record = Records[I];
    for (unsigned S = 0; S != SlotsPerThread; ++S)
      VBL_ASSERT(
          Record.Hazards[S].load(std::memory_order_acquire) == nullptr,
          "HazardPointerDomain destroyed while a pointer is protected");
    for (const RetiredPtr &R : Record.RetireList)
      R.Deleter(R.Ptr);
    Record.RetireList.clear();
  }
  std::lock_guard<std::mutex> Lock(OrphanMutex);
  for (const RetiredPtr &R : Orphans)
    R.Deleter(R.Ptr);
  stats::bump(stats::Counter::HpOrphanBacklog,
              uint64_t(0) - Orphans.size());
  Orphans.clear();
  OrphanCount.store(0, std::memory_order_release);
}

void HazardPointerDomain::detachTrampoline(void *Domain, void *Record) {
  static_cast<HazardPointerDomain *>(Domain)->detach(
      static_cast<ThreadRecord *>(Record));
}

void HazardPointerDomain::detach(ThreadRecord *Record) {
  for (unsigned I = 0; I != SlotsPerThread; ++I)
    Record->Hazards[I].store(nullptr, std::memory_order_release);
  if (!Record->RetireList.empty()) {
    std::lock_guard<std::mutex> Lock(OrphanMutex);
    Orphans.insert(Orphans.end(), Record->RetireList.begin(),
                   Record->RetireList.end());
    OrphanCount.store(Orphans.size(), std::memory_order_release);
    stats::bump(stats::Counter::HpOrphanBacklog,
                Record->RetireList.size());
  }
  Record->RetireList.clear();
  Record->NextScanAt = 0; // Next owner starts from the plain threshold.
  Record->InUse.store(false, std::memory_order_release);
}

/// Moves a bounded batch of orphaned retirees into \p Record's own
/// retire list so the scan that follows can free them. Without this,
/// retirees of exited threads sit on the orphan list forever unless
/// someone calls collectAll() — the backlog regression test exercises
/// exactly that leak.
void HazardPointerDomain::adoptOrphans(ThreadRecord *Record) {
  if (OrphanCount.load(std::memory_order_acquire) == 0)
    return; // Common case: no backlog, no lock traffic.
  std::unique_lock<std::mutex> Lock(OrphanMutex, std::try_to_lock);
  if (!Lock.owns_lock())
    return; // Someone else is adopting; don't serialize retire().
  // Batch bound keeps one retire() from inheriting an unbounded list.
  const size_t N = std::min(Orphans.size(), Threshold);
  if (N == 0)
    return;
  Record->RetireList.insert(Record->RetireList.end(), Orphans.end() - N,
                            Orphans.end());
  Orphans.resize(Orphans.size() - N);
  OrphanCount.store(Orphans.size(), std::memory_order_release);
  stats::bump(stats::Counter::HpOrphansAdopted, N);
  // Down-count by wrapping addition; Snapshot::delta subtracts the same
  // way, so the backlog gauge stays exact.
  stats::bump(stats::Counter::HpOrphanBacklog, uint64_t(0) - N);
}

void HazardPointerDomain::retireRaw(void *Ptr, void (*Deleter)(void *)) {
  VBL_ASSERT(Ptr, "retiring null");
  ThreadRecord *Record = attachCurrentThread();
  Record->RetireList.push_back({Ptr, Deleter});
  addOwnedCount(Record->Retired);
  stats::bump(stats::Counter::HpRetired);
  // Watermark, not plain threshold: after a scan keeps K protected
  // pointers, the next scan waits for K + threshold retirees. A plain
  // ">= threshold" check degenerates into one full scan per retire the
  // moment K reaches the threshold (the scan-thrash regression test).
  const size_t Trigger = std::max(Record->NextScanAt, Threshold);
  if (Record->RetireList.size() >= Trigger) {
    adoptOrphans(Record);
    const size_t Kept = scan(Record, Record->RetireList);
    Record->NextScanAt = Kept + Threshold;
  }
}

size_t HazardPointerDomain::scan(ThreadRecord *Self,
                                 std::vector<RetiredPtr> &List) {
  // Stage 1: snapshot every published hazard.
  std::vector<void *> Protected;
  Protected.reserve(64);
  for (uint32_t I = 0, HW = Records.highWater(); I != HW; ++I) {
    const ThreadRecord &Record = Records[I];
    // Slots of unattached records are all null, so no InUse filter is
    // needed for correctness; reading them is cheap.
    for (unsigned S = 0; S != SlotsPerThread; ++S)
      if (void *Ptr = Record.Hazards[S].load(std::memory_order_seq_cst))
        Protected.push_back(Ptr);
  }
  std::sort(Protected.begin(), Protected.end());

  // Stage 2: free everything not protected.
  size_t Kept = 0;
  uint64_t FreedHere = 0;
  for (size_t I = 0, E = List.size(); I != E; ++I) {
    if (std::binary_search(Protected.begin(), Protected.end(),
                           List[I].Ptr)) {
      List[Kept++] = List[I];
      continue;
    }
    List[I].Deleter(List[I].Ptr);
    ++FreedHere;
  }
  List.resize(Kept);
  addOwnedCount(Self->Freed, FreedHere);
  addOwnedCount(Self->Scans);
  stats::bump(stats::Counter::HpScans);
  stats::bump(stats::Counter::HpFreed, FreedHere);
  stats::bump(stats::Counter::HpScanKept, Kept);
  return Kept;
}

void HazardPointerDomain::collectAll() {
  ThreadRecord *Record = attachCurrentThread();
  const size_t Kept = scan(Record, Record->RetireList);
  Record->NextScanAt = Kept + Threshold;
  std::lock_guard<std::mutex> Lock(OrphanMutex);
  const size_t HadOrphans = Orphans.size();
  const size_t OrphansKept = scan(Record, Orphans);
  OrphanCount.store(OrphansKept, std::memory_order_release);
  stats::bump(stats::Counter::HpOrphanBacklog,
              uint64_t(0) - (HadOrphans - OrphansKept));
}
