//===- tests/lists/SkipListTest.cpp - Lazy skip list specifics -----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Skip-list-specific properties (the shared registry battery covers
/// the set semantics): tower structure, level distribution, logarithmic
/// search behaviour, and removal discipline through LeakyDomain.
///
//===----------------------------------------------------------------------===//

#include "lists/LazySkipList.h"

#include "reclaim/LeakyDomain.h"
#include "support/Barrier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace vbl;

TEST(LazySkipList, LargeSequentialWorkload) {
  LazySkipList<> Set;
  constexpr SetKey N = 20000;
  for (SetKey Key = 0; Key != N; ++Key)
    ASSERT_TRUE(Set.insert(Key * 7 % N)) << Key;
  EXPECT_EQ(Set.sizeSlow(), static_cast<size_t>(N));
  EXPECT_TRUE(Set.checkInvariants());
  for (SetKey Key = 0; Key != N; ++Key)
    ASSERT_TRUE(Set.contains(Key));
  for (SetKey Key = 0; Key != N; Key += 2)
    ASSERT_TRUE(Set.remove(Key));
  EXPECT_EQ(Set.sizeSlow(), static_cast<size_t>(N / 2));
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(LazySkipList, SnapshotSorted) {
  LazySkipList<> Set;
  for (SetKey Key : {9, 1, 77, 23, 4})
    EXPECT_TRUE(Set.insert(Key));
  EXPECT_EQ(Set.snapshot(), (std::vector<SetKey>{1, 4, 9, 23, 77}));
}

TEST(LazySkipList, TowersAreSubsequences) {
  // checkInvariants verifies every level is sorted and terminates;
  // exercise it with enough volume that multi-level towers exist.
  LazySkipList<> Set;
  Xoshiro256 Rng(8);
  for (int I = 0; I != 5000; ++I)
    Set.insert(static_cast<SetKey>(Rng.nextBounded(1 << 20)));
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(LazySkipList, ConcurrentAccounting) {
  LazySkipList<> Set;
  constexpr unsigned NumThreads = 4;
  SpinBarrier Barrier(NumThreads);
  std::atomic<long> Balance{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(31 + T);
      long Local = 0;
      Barrier.arriveAndWait();
      for (int I = 0; I != 20000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(64));
        if (Rng.nextPercent(50))
          Local += Set.insert(Key);
        else
          Local -= Set.remove(Key);
      }
      Balance.fetch_add(Local, std::memory_order_relaxed);
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  EXPECT_EQ(static_cast<long>(Set.sizeSlow()), Balance.load());
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(LazySkipList, SingleRetirePerRemovedTower) {
  LazySkipList<reclaim::LeakyDomain> Set;
  constexpr unsigned NumThreads = 4;
  SpinBarrier Barrier(NumThreads);
  std::atomic<long> Removals{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(53 + T);
      long Local = 0;
      Barrier.arriveAndWait();
      for (int I = 0; I != 15000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(16));
        if (Rng.nextPercent(50))
          Set.insert(Key);
        else
          Local += Set.remove(Key);
      }
      Removals.fetch_add(Local, std::memory_order_relaxed);
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  EXPECT_FALSE(Set.reclaimDomain().sawDoubleRetire());
  EXPECT_EQ(Set.reclaimDomain().retiredCount(),
            static_cast<uint64_t>(Removals.load()));
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(LazySkipList, FailedInsertTakesNoLockEvenUnderChurn) {
  // The decide-before-lock behaviour: with key 5 permanently present,
  // failing inserts of 5 must complete while another thread churns
  // neighbouring keys (if they took locks they would at least
  // serialize; here we assert they terminate promptly and correctly).
  LazySkipList<> Set;
  ASSERT_TRUE(Set.insert(5));
  std::atomic<bool> Stop{false};
  std::thread Churner([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      Set.insert(4);
      Set.remove(4);
      Set.insert(6);
      Set.remove(6);
    }
  });
  for (int I = 0; I != 30000; ++I)
    ASSERT_FALSE(Set.insert(5));
  Stop.store(true, std::memory_order_release);
  Churner.join();
  EXPECT_TRUE(Set.contains(5));
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(LazySkipList, ReinsertionAfterRemovalReusesNothing) {
  LazySkipList<> Set;
  for (int Round = 0; Round != 1000; ++Round) {
    ASSERT_TRUE(Set.insert(11));
    ASSERT_TRUE(Set.contains(11));
    ASSERT_TRUE(Set.remove(11));
    ASSERT_FALSE(Set.contains(11));
  }
  Set.reclaimDomain().collectAll();
  EXPECT_GT(Set.reclaimDomain().freedCount(), 0u);
}
