//===- tests/reclaim/AccountingTest.cpp - Reclaim count accounting -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Exact accounting of the reclamation domains' retired/freed/reused/scan
/// counts. The counts are owner-written cells of the per-thread records,
/// summed on demand (reclaim/DomainRegistry.h), so they must survive
/// what a shared counter never had to: records recycled to new threads,
/// orphans freed by threads other than the one that retired them, and a
/// thread's attach cache switching between domains whose ids collide.
///
/// The wave tests start more threads in all than a domain has records
/// (MaxThreads), a few at a time, so every record is reused; each thread
/// exits with part of its retirees unfreed, which later threads free.
///
//===----------------------------------------------------------------------===//

#include "reclaim/EpochDomain.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/VbrDomain.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <vector>

using namespace vbl;
using namespace vbl::reclaim;

namespace {

/// Threads alive at once in a wave.
constexpr unsigned ThreadsPerWave = 4;

/// Runs \p Body on ThreadsPerWave threads at a time, joining each wave
/// before the next starts, until more threads than \p MaxThreads have
/// run: the later waves can only have claimed recycled records.
template <class BodyFn> uint64_t runWaves(unsigned MaxThreads, BodyFn Body) {
  const unsigned Waves = MaxThreads / ThreadsPerWave + 2;
  for (unsigned W = 0; W != Waves; ++W) {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != ThreadsPerWave; ++T)
      Threads.emplace_back(Body);
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  return uint64_t(Waves) * ThreadsPerWave;
}

std::atomic<uint64_t> RawDeletes{0};

void countingDelete(void *Ptr) {
  delete static_cast<int *>(Ptr);
  RawDeletes.fetch_add(1, std::memory_order_relaxed);
}

struct Payload {
  uint64_t Word = 0;
};

} // namespace

TEST(ReclaimAccounting, EpochCountsSurviveRecycledRecordsAndOrphans) {
  // Not a multiple of CollectThreshold: every thread exits with
  // retirees on its list, which become orphans for later threads.
  constexpr unsigned PerThread = 300;
  static_assert(PerThread % EpochDomain::CollectThreshold != 0);
  RawDeletes.store(0);
  EpochDomain Domain;
  const uint64_t Threads = runWaves(EpochDomain::MaxThreads, [&] {
    for (unsigned I = 0; I != PerThread; ++I) {
      EpochDomain::Guard G(Domain);
      Domain.retireRaw(new int(0), &countingDelete);
    }
  });
  const uint64_t Total = Threads * PerThread;
  EXPECT_EQ(Domain.retiredCount(), Total);
  // Every deleter call, by whichever thread ran it, counted exactly once.
  EXPECT_EQ(Domain.freedCount(), RawDeletes.load());
  EXPECT_GT(Domain.freedCount(), 0u);
  Domain.collectAll();
  EXPECT_EQ(Domain.freedCount(), Total);
  EXPECT_EQ(RawDeletes.load(), Total);
}

TEST(ReclaimAccounting, HazardCountsSurviveRecycledRecordsAndOrphans) {
  // No thread publishes a hazard, so every scan frees its whole list and
  // fires exactly at each Threshold-th retire of a thread: adopted
  // orphans join a scan the thread's own retires triggered. Each thread
  // exits with PerThread % Threshold retirees orphaned.
  constexpr size_t Threshold = 16;
  constexpr unsigned PerThread = 300;
  static_assert(PerThread % Threshold != 0);
  RawDeletes.store(0);
  HazardPointerDomain Domain(Threshold);
  const uint64_t Threads = runWaves(HazardPointerDomain::MaxThreads, [&] {
    for (unsigned I = 0; I != PerThread; ++I)
      Domain.retireRaw(new int(0), &countingDelete);
  });
  const uint64_t Total = Threads * PerThread;
  EXPECT_EQ(Domain.retiredCount(), Total);
  EXPECT_EQ(Domain.freedCount(), RawDeletes.load());
  EXPECT_EQ(Domain.scanCount(), Threads * (PerThread / Threshold));
  // collectAll scans the caller's (empty) list and then the orphans.
  Domain.collectAll();
  EXPECT_EQ(Domain.scanCount(), Threads * (PerThread / Threshold) + 2);
  EXPECT_EQ(Domain.orphanBacklog(), 0u);
  EXPECT_EQ(Domain.freedCount(), Total);
  EXPECT_EQ(RawDeletes.load(), Total);
}

TEST(ReclaimAccounting, VbrCountsSurviveRecycledRecordsAndDonations) {
  // Each thread alternates allocate and retire. A reuse is counted by
  // the thread that revives the block, which may have been retired by a
  // thread that exited and donated it to the shared lists.
  constexpr unsigned PerThread = 300;
  RawDeletes.store(0);
  std::atomic<uint64_t> Reuses{0};
  uint64_t Threads = 0;
  {
    VbrDomain Domain;
    Threads = runWaves(VbrDomain::MaxThreads, [&] {
      uint64_t Reused = 0;
      for (unsigned I = 0; I != PerThread; ++I) {
        bool Fresh = false;
        void *Mem = Domain.allocBlockFor<Payload>(Fresh);
        Payload *Node = Fresh ? ::new (Mem) Payload()
                              : std::launder(static_cast<Payload *>(Mem));
        Reused += !Fresh;
        Domain.retireNode(Node);
      }
      // Headerless memory: parked until teardown, but counted now.
      Domain.retireRaw(new int(0), &countingDelete);
      Reuses.fetch_add(Reused, std::memory_order_relaxed);
    });
    EXPECT_EQ(Domain.retiredCount(), Threads * (PerThread + 1));
    EXPECT_EQ(Domain.reusedCount(), Reuses.load());
    EXPECT_EQ(Domain.freedCount(), Domain.reusedCount());
    // Every allocation after a thread's first revives the block it just
    // retired; after the first wave, the first revives a block an exited
    // thread donated.
    EXPECT_GT(Reuses.load(), Threads * (PerThread - 1));
    EXPECT_EQ(RawDeletes.load(), 0u);
  }
  EXPECT_EQ(RawDeletes.load(), Threads);
}

TEST(ReclaimAccounting, AttachCacheKeepsCollidingDomainsApart) {
  // 20 domains built back to back hold consecutive ids, so four pairs
  // share an attach-cache entry (ids equal modulo 16) and evict each
  // other on every round.
  constexpr unsigned NumDomains = 20;
  constexpr unsigned Rounds = 50;
  RawDeletes.store(0);
  std::vector<std::unique_ptr<EpochDomain>> Domains;
  for (unsigned I = 0; I != NumDomains; ++I)
    Domains.push_back(std::make_unique<EpochDomain>());

  std::vector<unsigned> RecordsClaimed(NumDomains, 0);
  std::thread Worker([&] {
    for (unsigned R = 0; R != Rounds; ++R) {
      for (unsigned I = 0; I != NumDomains; ++I) {
        EpochDomain::Guard G(*Domains[I]);
        Domains[I]->retireRaw(new int(0), &countingDelete);
      }
      // The colliding pairs nested: the inner guard's attach evicts the
      // outer domain's entry while the outer guard is still held.
      for (unsigned I = 0; I + 16 < NumDomains; ++I) {
        EpochDomain::Guard Outer(*Domains[I]);
        EpochDomain::Guard Inner(*Domains[I + 16]);
        Domains[I + 16]->retireRaw(new int(0), &countingDelete);
        Domains[I]->retireRaw(new int(0), &countingDelete);
      }
    }
    // One registry entry per domain: a miss that claimed a second
    // record, instead of finding this thread's first, would add one.
    for (const detail::TlsEntry &Entry : detail::tlsRegistry().Entries)
      for (unsigned I = 0; I != NumDomains; ++I)
        RecordsClaimed[I] += Entry.Domain == Domains[I].get();
  });
  Worker.join();

  uint64_t Total = 0;
  for (unsigned I = 0; I != NumDomains; ++I) {
    EXPECT_EQ(RecordsClaimed[I], 1u) << "domain " << I;
    const bool Paired = I < NumDomains - 16 || I >= 16;
    const uint64_t Expected = Rounds * (Paired ? 2 : 1);
    EXPECT_EQ(Domains[I]->retiredCount(), Expected) << "domain " << I;
    Domains[I]->collectAll();
    EXPECT_EQ(Domains[I]->freedCount(), Expected) << "domain " << I;
    Total += Expected;
  }
  EXPECT_EQ(RawDeletes.load(), Total);
}
