//===- tests/lists/VblListTest.cpp - VBL-specific tests ------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "core/VblList.h"

#include "core/ValueAwareTryLock.h"
#include "reclaim/LeakyDomain.h"
#include "support/Barrier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace vbl;

//===----------------------------------------------------------------------===//
// ValueAwareTryLock unit tests
//===----------------------------------------------------------------------===//

TEST(ValueAwareTryLock, KeepsLockWhenValidationPasses) {
  ValueAwareTryLock<TasLock> Lock;
  EXPECT_TRUE(
      Lock.acquireIfValid<DirectPolicy>(nullptr, [] { return true; }));
  EXPECT_TRUE(Lock.isLocked());
  Lock.release<DirectPolicy>(nullptr);
  EXPECT_FALSE(Lock.isLocked());
}

TEST(ValueAwareTryLock, ReleasesLockWhenValidationFails) {
  ValueAwareTryLock<TasLock> Lock;
  EXPECT_FALSE(
      Lock.acquireIfValid<DirectPolicy>(nullptr, [] { return false; }));
  EXPECT_FALSE(Lock.isLocked());
}

TEST(ValueAwareTryLock, ValidationRunsUnderTheLock) {
  ValueAwareTryLock<TasLock> Lock;
  bool WasLockedDuringValidation = false;
  EXPECT_TRUE(Lock.acquireIfValid<DirectPolicy>(nullptr, [&] {
    WasLockedDuringValidation = Lock.isLocked();
    return true;
  }));
  EXPECT_TRUE(WasLockedDuringValidation);
  Lock.release<DirectPolicy>(nullptr);
}

TEST(ValueAwareTryLock, SerializesConcurrentHolders) {
  ValueAwareTryLock<TasLock> Lock;
  long Counter = 0;
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T) {
    Threads.emplace_back([&] {
      for (int I = 0; I != 10000; ++I) {
        while (!Lock.acquireIfValid<DirectPolicy>(nullptr,
                                                  [] { return true; })) {
        }
        ++Counter;
        Lock.release<DirectPolicy>(nullptr);
      }
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  EXPECT_EQ(Counter, 40000);
}

//===----------------------------------------------------------------------===//
// VBL variant semantics (every knob must preserve set semantics)
//===----------------------------------------------------------------------===//

template <class ListT> class VblVariantTest : public ::testing::Test {};

using VblVariants = ::testing::Types<
    VblList<>,                                                  // default
    VblList<reclaim::EpochDomain, DirectPolicy, TasLock, false, true>,
    VblList<reclaim::EpochDomain, DirectPolicy, TasLock, true, false>,
    VblList<reclaim::EpochDomain, DirectPolicy, TasLock, false, false>,
    VblList<reclaim::EpochDomain, DirectPolicy, TtasLock>,
    VblList<reclaim::EpochDomain, DirectPolicy, TicketLock>,
    VblList<reclaim::LeakyDomain>>;
TYPED_TEST_SUITE(VblVariantTest, VblVariants);

TYPED_TEST(VblVariantTest, BasicSemantics) {
  TypeParam List;
  EXPECT_FALSE(List.contains(3));
  EXPECT_TRUE(List.insert(3));
  EXPECT_FALSE(List.insert(3));
  EXPECT_TRUE(List.contains(3));
  EXPECT_TRUE(List.remove(3));
  EXPECT_FALSE(List.remove(3));
  EXPECT_TRUE(List.checkInvariants());
}

TYPED_TEST(VblVariantTest, SortedSnapshot) {
  TypeParam List;
  for (SetKey Key : {9, 2, 5, 1})
    EXPECT_TRUE(List.insert(Key));
  EXPECT_EQ(List.snapshot(), (std::vector<SetKey>{1, 2, 5, 9}));
}

TYPED_TEST(VblVariantTest, ConcurrentMixedOps) {
  TypeParam List;
  constexpr unsigned NumThreads = 4;
  SpinBarrier Barrier(NumThreads);
  std::atomic<long> Balance{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(T + 1);
      long Local = 0;
      Barrier.arriveAndWait();
      for (int I = 0; I != 10000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(16));
        if (Rng.nextPercent(50))
          Local += List.insert(Key);
        else
          Local -= List.remove(Key);
      }
      Balance.fetch_add(Local, std::memory_order_relaxed);
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  EXPECT_TRUE(List.checkInvariants());
  EXPECT_EQ(static_cast<long>(List.sizeSlow()), Balance.load());
}

//===----------------------------------------------------------------------===//
// Unlink discipline, observed through the LeakyDomain's retire log
//===----------------------------------------------------------------------===//

TEST(VblListReclaim, EveryRemovalRetiresExactlyOnce) {
  VblList<reclaim::LeakyDomain> List;
  constexpr unsigned NumThreads = 4;
  SpinBarrier Barrier(NumThreads);
  std::atomic<long> Removals{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(42 + T);
      long Local = 0;
      Barrier.arriveAndWait();
      for (int I = 0; I != 20000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(8));
        if (Rng.nextPercent(50))
          List.insert(Key);
        else
          Local += List.remove(Key);
      }
      Removals.fetch_add(Local, std::memory_order_relaxed);
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  EXPECT_FALSE(List.reclaimDomain().sawDoubleRetire())
      << "a node was physically unlinked twice";
  EXPECT_EQ(List.reclaimDomain().retiredCount(),
            static_cast<uint64_t>(Removals.load()))
      << "retire count must equal successful removals";
  EXPECT_TRUE(List.checkInvariants());
}

TEST(VblListReclaim, EpochDomainFreesUnderChurn) {
  VblList<> List;
  constexpr unsigned NumThreads = 4;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(7 + T);
      for (int I = 0; I != 30000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(32));
        if (Rng.nextPercent(50))
          List.insert(Key);
        else
          List.remove(Key);
      }
    });
  }
  for (auto &Thread : Threads)
    Thread.join();
  List.reclaimDomain().collectAll();
  // Churn at threshold 128 must have recycled the bulk of retirements.
  EXPECT_GT(List.reclaimDomain().freedCount(), 0u);
  EXPECT_EQ(List.reclaimDomain().freedCount(),
            List.reclaimDomain().retiredCount());
  EXPECT_TRUE(List.checkInvariants());
}

//===----------------------------------------------------------------------===//
// The headline behavioural property: a failing insert takes no lock
//===----------------------------------------------------------------------===//

TEST(VblListOptimality, FailingInsertIgnoresHeldLocks) {
  // Fig. 2 scenario, realized with real threads: thread A holds every
  // node lock in the list (simulating a stalled update); a VBL insert
  // of a *present* key must still complete, because it decides from
  // values alone. (The same scenario against LazyList would deadlock;
  // it is exercised under the deterministic scheduler instead — see
  // sched tests — where blocking is observable rather than fatal.)
  VblList<> List;
  ASSERT_TRUE(List.insert(1));

  // Simulate the stalled lock holder with a raw second list handle: we
  // cannot reach node locks from outside, so instead stall a *remover*
  // between its lock acquisitions using a contending key pattern. The
  // cheap deterministic proxy: a failing insert must not change the
  // restart/lock behaviour even when another thread performs updates
  // around the same key continuously.
  std::atomic<bool> Stop{false};
  std::thread Churner([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      List.insert(2);
      List.remove(2);
    }
  });
  for (int I = 0; I != 50000; ++I)
    ASSERT_FALSE(List.insert(1)) << "key 1 is always present";
  Stop.store(true, std::memory_order_release);
  Churner.join();
  EXPECT_TRUE(List.contains(1));
  EXPECT_TRUE(List.checkInvariants());
}

TEST(VblListOptimality, ValueAwareRemoveSurvivesNodeReplacement) {
  // remove(v) validates the successor VALUE, not its identity: replace
  // the node storing v between a traversal and the lock by churning
  // remove/insert of v from another thread; the remover must still
  // succeed without livelocking on identity mismatches.
  VblList<> List;
  std::atomic<bool> Stop{false};
  std::atomic<long> Balance{0};
  std::thread Churner([&] {
    long Local = 0;
    while (!Stop.load(std::memory_order_acquire)) {
      Local += List.insert(7);
      Local -= List.remove(7);
    }
    Balance.fetch_add(Local, std::memory_order_relaxed);
  });
  long MyBalance = 0;
  for (int I = 0; I != 50000; ++I) {
    MyBalance += List.insert(7);
    MyBalance -= List.remove(7);
  }
  Stop.store(true, std::memory_order_release);
  Churner.join();
  Balance.fetch_add(MyBalance, std::memory_order_relaxed);
  EXPECT_EQ(static_cast<long>(List.sizeSlow()), Balance.load());
  EXPECT_TRUE(List.checkInvariants());
}

//===----------------------------------------------------------------------===//
// Sorted-batch application (applyBatchSorted)
//===----------------------------------------------------------------------===//

// Same-key ops must take effect in submission order — the per-key FIFO
// contract of the batched service path. An insert;remove;insert triple
// on one key is only distinguishable from its permutations through the
// per-op results and the final membership; pin both.
TEST(VblBatch, SameKeyOpsKeepSubmissionOrder) {
  VblList<> List;
  BatchOp Ops[5];
  Ops[0] = {SetOp::Insert, 5};
  Ops[1] = {SetOp::Remove, 5};
  Ops[2] = {SetOp::Insert, 5};
  Ops[3] = {SetOp::Remove, 7};  // absent: must order before the insert
  Ops[4] = {SetOp::Insert, 7};
  BatchOp *Sorted[5] = {&Ops[0], &Ops[1], &Ops[2], &Ops[3], &Ops[4]};
  List.applyBatchSorted(Sorted, 5);
  EXPECT_TRUE(Ops[0].Result);
  EXPECT_TRUE(Ops[1].Result);
  EXPECT_TRUE(Ops[2].Result);
  EXPECT_FALSE(Ops[3].Result); // remove-before-insert saw an empty list
  EXPECT_TRUE(Ops[4].Result);
  EXPECT_EQ(List.snapshot(), (std::vector<SetKey>{5, 7}));
}

// The sorted-batch entry point asserts its precondition instead of
// silently reordering: same-key ops handed in descending array-slot
// order would swap an insert(k);remove(k) pair.
TEST(VblBatchDeathTest, SameKeyOpsOutOfSubmissionOrderAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VblList<> List;
  BatchOp Ops[2];
  Ops[0] = {SetOp::Insert, 5};
  Ops[1] = {SetOp::Remove, 5};
  // Same key, later slot first: violates (Key, submission index) order.
  BatchOp *Misordered[2] = {&Ops[1], &Ops[0]};
  EXPECT_DEATH(List.applyBatchSorted(Misordered, 2), "submission order");
}

TEST(VblBatchDeathTest, DescendingKeysAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VblList<> List;
  BatchOp Ops[2];
  Ops[0] = {SetOp::Insert, 9};
  Ops[1] = {SetOp::Insert, 4};
  BatchOp *Unsorted[2] = {&Ops[0], &Ops[1]};
  EXPECT_DEATH(List.applyBatchSorted(Unsorted, 2), "submission order");
}

// SetAdapter runs every scan on its own, so a scan inside a sorted
// batch is a caller bug.
TEST(VblBatchDeathTest, RangeQueryAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VblList<> List;
  BatchOp Scan{SetOp::RangeQuery, 1, 9};
  BatchOp *One[1] = {&Scan};
  EXPECT_DEATH(List.applyBatchSorted(One, 1), "point ops only");
}
