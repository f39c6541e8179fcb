//===- tests/lists/ChaosStressTest.cpp - Delay-injected stress -----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Stress under ChaosPolicy: random pauses before every shared access
/// blow every race window wide open. The algorithms under fuzzing are
/// the three the paper evaluates (VBL, Lazy, Harris-Michael) plus the
/// VBL ablation variants; oracles are per-key accounting, structural
/// invariants, and retire-exactly-once via the LeakyDomain's log.
///
//===----------------------------------------------------------------------===//

#include "core/VblList.h"
#include "lists/HarrisMichaelList.h"
#include "lists/LazyList.h"
#include "reclaim/LeakyDomain.h"
#include "support/Barrier.h"
#include "support/Random.h"
#include "sync/ChaosPolicy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace vbl;

namespace {

template <class ListT>
void chaosAccountingStress(ListT &List, unsigned NumThreads, int Ops,
                           SetKey Range, uint64_t Seed) {
  SpinBarrier Barrier(NumThreads);
  std::atomic<long> Balance{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(Seed + T);
      long Local = 0;
      Barrier.arriveAndWait();
      for (int I = 0; I != Ops; ++I) {
        const SetKey Key = static_cast<SetKey>(
            Rng.nextBounded(static_cast<uint64_t>(Range)));
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

} // namespace

TEST(ChaosStress, VblTinyRange) {
  VblList<reclaim::EpochDomain, ChaosPolicy> List;
  chaosAccountingStress(List, 4, 8000, 4, 11);
}

TEST(ChaosStress, VblWiderRange) {
  VblList<reclaim::EpochDomain, ChaosPolicy> List;
  chaosAccountingStress(List, 4, 8000, 64, 13);
}

TEST(ChaosStress, VblNodeAwareVariant) {
  VblList<reclaim::EpochDomain, ChaosPolicy, TasLock, true, false> List;
  chaosAccountingStress(List, 4, 8000, 8, 17);
}

TEST(ChaosStress, VblHeadRestartVariant) {
  VblList<reclaim::EpochDomain, ChaosPolicy, TasLock, false, true> List;
  chaosAccountingStress(List, 4, 8000, 8, 19);
}

TEST(ChaosStress, Lazy) {
  LazyList<reclaim::EpochDomain, ChaosPolicy> List;
  chaosAccountingStress(List, 4, 8000, 8, 23);
}

TEST(ChaosStress, HarrisMichael) {
  HarrisMichaelList<reclaim::EpochDomain, ChaosPolicy> List;
  chaosAccountingStress(List, 4, 8000, 8, 29);
}

TEST(ChaosStress, VblRetireDiscipline) {
  VblList<reclaim::LeakyDomain, ChaosPolicy> List;
  chaosAccountingStress(List, 4, 6000, 4, 31);
  EXPECT_FALSE(List.reclaimDomain().sawDoubleRetire());
}

TEST(ChaosStress, HarrisMichaelRetireDiscipline) {
  HarrisMichaelList<reclaim::LeakyDomain, ChaosPolicy> List;
  chaosAccountingStress(List, 4, 6000, 4, 37);
  EXPECT_FALSE(List.reclaimDomain().sawDoubleRetire());
}
