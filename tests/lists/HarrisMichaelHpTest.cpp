//===- tests/lists/HarrisMichaelHpTest.cpp - HP-integrated HM tests ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Tests specific to HarrisMichaelList over hazard pointers: besides
/// set semantics (already covered by the shared registry battery), the
/// HP-specific property is that memory is actually recycled *during*
/// the run with bounded garbage — something the epoch variant cannot
/// promise when a reader stalls.
///
//===----------------------------------------------------------------------===//

#include "lists/HarrisMichaelList.h"

#include "reclaim/HazardPointerDomain.h"
#include "support/Barrier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace vbl;

namespace {
using HpList = HarrisMichaelList<reclaim::HazardPointerDomain>;
} // namespace

TEST(HarrisMichaelHp, BasicSemantics) {
  HpList List;
  EXPECT_FALSE(List.contains(5));
  EXPECT_TRUE(List.insert(5));
  EXPECT_FALSE(List.insert(5));
  EXPECT_TRUE(List.contains(5));
  EXPECT_TRUE(List.remove(5));
  EXPECT_FALSE(List.remove(5));
  EXPECT_TRUE(List.checkInvariants());
}

TEST(HarrisMichaelHp, ReclaimsDuringTheRun) {
  HpList List;
  // Far more toggles than the scan threshold: most retirements must be
  // freed while the test is still running.
  for (int I = 0; I != 20000; ++I) {
    ASSERT_TRUE(List.insert(7));
    ASSERT_TRUE(List.remove(7));
  }
  auto &Domain = List.reclaimDomain();
  EXPECT_GT(Domain.retiredCount(), 19000u);
  EXPECT_GT(Domain.freedCount(), Domain.retiredCount() / 2)
      << "hazard-pointer scans must recycle garbage during the run";
}

TEST(HarrisMichaelHp, BoundedGarbageUnderChurn) {
  HpList List;
  for (int I = 0; I != 50000; ++I) {
    List.insert(static_cast<SetKey>(I % 64));
    List.remove(static_cast<SetKey>((I + 32) % 64));
  }
  auto &Domain = List.reclaimDomain();
  // Unfreed garbage is bounded by the scan threshold plus protected
  // slots — far below the retirement volume.
  EXPECT_LT(Domain.retiredCount() - Domain.freedCount(), 512u);
}

TEST(HarrisMichaelHp, ConcurrentAccountingAndSafety) {
  HpList List;
  constexpr unsigned NumThreads = 4;
  SpinBarrier Barrier(NumThreads);
  std::atomic<long> Balance{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(17 + T);
      long Local = 0;
      Barrier.arriveAndWait();
      for (int I = 0; I != 30000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(8));
        switch (Rng.nextBounded(3)) {
        case 0:
          Local += List.insert(Key);
          break;
        case 1:
          Local -= List.remove(Key);
          break;
        default:
          List.contains(Key);
          break;
        }
      }
      Balance.fetch_add(Local, std::memory_order_relaxed);
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  EXPECT_EQ(static_cast<long>(List.sizeSlow()), Balance.load());
  EXPECT_TRUE(List.checkInvariants());
}

TEST(HarrisMichaelHp, ReaderNeverSeesRecycledNode) {
  // Heavy remove/insert churn of one key while readers hammer
  // contains: any use-after-free would trip ASan-less too via the
  // val/next invariant checks inside contains' find loop.
  HpList List;
  for (SetKey Key = 0; Key != 8; ++Key)
    List.insert(Key);
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 2; ++T) {
    Readers.emplace_back([&, T] {
      Xoshiro256 Rng(100 + T);
      while (!Stop.load(std::memory_order_acquire))
        List.contains(static_cast<SetKey>(Rng.nextBounded(8)));
    });
  }
  std::thread Writer([&] {
    for (int I = 0; I != 30000; ++I) {
      List.remove(static_cast<SetKey>(I % 8));
      List.insert(static_cast<SetKey>(I % 8));
    }
    Stop.store(true, std::memory_order_release);
  });
  Writer.join();
  for (auto &Reader : Readers)
    Reader.join();
  EXPECT_TRUE(List.checkInvariants());
}
