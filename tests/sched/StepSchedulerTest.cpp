//===- tests/sched/StepSchedulerTest.cpp - Deterministic stepping --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "sched/StepScheduler.h"

#include "lists/SequentialList.h"
#include "sync/SpinLocks.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace vbl;
using namespace vbl::sched;

namespace {

/// A tiny traced program: N shared accesses via TracedPolicy on a
/// dedicated atomic, recording into the episode trace.
std::function<void()> accessorBody(std::atomic<int64_t> &Cell,
                                   int Accesses) {
  return [&Cell, Accesses] {
    for (int I = 0; I != Accesses; ++I)
      TracedPolicy::read(Cell, std::memory_order_relaxed, &Cell,
                         MemField::Val);
  };
}

} // namespace

TEST(StepScheduler, SingleThreadRunsToCompletion) {
  std::atomic<int64_t> Cell{7};
  StepScheduler Sched({accessorBody(Cell, 3)});
  EXPECT_FALSE(Sched.finished(0));
  ASSERT_TRUE(Sched.drain());
  EXPECT_TRUE(Sched.allFinished());
  // 3 accesses recorded.
  EXPECT_EQ(Sched.trace().size(), 3u);
}

TEST(StepScheduler, StepGranularityIsOneAccess) {
  std::atomic<int64_t> Cell{0};
  StepScheduler Sched({accessorBody(Cell, 2)});
  Sched.step(0); // Runs to the first yield point: no access yet.
  EXPECT_EQ(Sched.trace().size(), 0u);
  Sched.step(0); // First access.
  EXPECT_EQ(Sched.trace().size(), 1u);
  Sched.step(0); // Second access; body then finishes.
  EXPECT_EQ(Sched.trace().size(), 2u);
  EXPECT_TRUE(Sched.finished(0));
}

TEST(StepScheduler, InterleavingFollowsGrants) {
  std::atomic<int64_t> A{0}, B{0};
  StepScheduler Sched({accessorBody(A, 2), accessorBody(B, 2)});
  // Park both at their first access.
  Sched.step(0);
  Sched.step(1);
  // Interleave: 1, 0, 0, 1.
  Sched.step(1);
  Sched.step(0);
  Sched.step(0);
  Sched.step(1);
  ASSERT_TRUE(Sched.drain());
  const auto &Trace = Sched.trace();
  ASSERT_EQ(Trace.size(), 4u);
  EXPECT_EQ(Trace[0].Thread, 1u);
  EXPECT_EQ(Trace[1].Thread, 0u);
  EXPECT_EQ(Trace[2].Thread, 0u);
  EXPECT_EQ(Trace[3].Thread, 1u);
}

// Every handoff here outlasts the spin and the yields, so each side
// parks on its futex before the other posts: grants and step ends must
// still arrive, in grant order, however long either side dawdles.
TEST(StepScheduler, GrantsReachParkedThreads) {
  constexpr int Accesses = 20;
  const auto Dawdle = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  };
  std::atomic<int64_t> A{0}, B{0};
  const auto SlowBody = [&Dawdle](std::atomic<int64_t> &Cell) {
    return [&Dawdle, &Cell] {
      for (int I = 0; I != Accesses; ++I) {
        Dawdle(); // Inside the step: the scheduler's wait parks.
        TracedPolicy::read(Cell, std::memory_order_relaxed, &Cell,
                           MemField::Val);
      }
    };
  };
  StepScheduler Sched({SlowBody(A), SlowBody(B)});
  std::vector<uint32_t> Granted;
  for (unsigned Next = 0; !Sched.allFinished(); Next = 1 - Next) {
    if (!Sched.runnable(Next))
      continue;
    Dawdle(); // Between steps: the workers' waits park.
    const size_t Before = Sched.trace().size();
    Sched.step(Next);
    if (Sched.trace().size() != Before)
      Granted.push_back(Next);
  }
  ASSERT_EQ(Sched.trace().size(), size_t(2 * Accesses));
  for (size_t I = 0; I != Granted.size(); ++I)
    EXPECT_EQ(Sched.trace()[I].Thread, Granted[I]) << "event " << I;
}

TEST(StepScheduler, LockBlockingAndRelease) {
  TasLock Lock;
  auto Locker = [&Lock] {
    TracedPolicy::lockAcquire(Lock, &Lock);
    TracedPolicy::lockRelease(Lock, &Lock);
  };
  StepScheduler Sched({Locker, Locker});
  // T0 to its first yield, then acquire.
  Sched.step(0);
  Sched.step(0); // T0 holds the lock.
  // T1 tries: first step parks at yield, second attempts and blocks.
  Sched.step(1);
  Sched.step(1);
  EXPECT_TRUE(Sched.blocked(1));
  EXPECT_FALSE(Sched.runnable(1));
  // T0 releases: T1 becomes runnable again.
  Sched.step(0); // release
  EXPECT_FALSE(Sched.blocked(1));
  ASSERT_TRUE(Sched.drain());
  EXPECT_TRUE(Sched.allFinished());

  // Trace shape: acquire(T0), blocked(T1), release(T0), acquire(T1),
  // release(T1).
  std::vector<EventKind> Kinds;
  for (const Event &E : Sched.trace())
    Kinds.push_back(E.Kind);
  ASSERT_EQ(Kinds.size(), 5u);
  EXPECT_EQ(Kinds[0], EventKind::LockAcquire);
  EXPECT_EQ(Kinds[1], EventKind::LockBlocked);
  EXPECT_EQ(Kinds[2], EventKind::LockRelease);
  EXPECT_EQ(Kinds[3], EventKind::LockAcquire);
  EXPECT_EQ(Kinds[4], EventKind::LockRelease);
}

TEST(StepScheduler, TracedSequentialListOpsRecordLLEvents) {
  auto List = std::make_shared<SequentialList<TracedPolicy>>();
  List->insert(5); // Untraced setup (no context on this thread).
  StepScheduler Sched(
      {[List] { tracedOp(SetOp::Contains, 5, [&] { return List->contains(5); }); },
       [List] { tracedOp(SetOp::Insert, 3, [&] { return List->insert(3); }); }});
  ASSERT_TRUE(Sched.drain());

  // Results via OpEnd events.
  const auto Ends = Sched.opEndEvents();
  ASSERT_EQ(Ends.size(), 2u);
  for (const Event &E : Ends)
    EXPECT_EQ(E.Value, 1u) << "both ops must succeed";
  EXPECT_TRUE(List->contains(3));
  EXPECT_TRUE(List->contains(5));

  // The trace must contain reads, a node creation and a write.
  bool SawRead = false, SawNew = false, SawWrite = false;
  for (const Event &E : Sched.trace()) {
    SawRead |= E.Kind == EventKind::Read;
    SawNew |= E.Kind == EventKind::NewNode;
    SawWrite |= E.Kind == EventKind::Write;
  }
  EXPECT_TRUE(SawRead);
  EXPECT_TRUE(SawNew);
  EXPECT_TRUE(SawWrite);
}

TEST(StepScheduler, DeterministicReplayProducesIdenticalTraces) {
  auto makeEpisode = [] {
    auto List = std::make_shared<SequentialList<TracedPolicy>>();
    List->insert(2);
    std::vector<std::function<void()>> Bodies = {
        [List] { tracedOp(SetOp::Insert, 1, [&] { return List->insert(1); }); },
        [List] { tracedOp(SetOp::Remove, 2, [&] { return List->remove(2); }); }};
    return Bodies;
  };
  // Same alternating grant sequence twice: identical event kinds.
  std::vector<std::vector<EventKind>> Kinds(2);
  for (int Run = 0; Run != 2; ++Run) {
    StepScheduler Sched(makeEpisode());
    unsigned Next = 0;
    while (!Sched.allFinished()) {
      if (Sched.runnable(Next))
        Sched.step(Next);
      Next = 1 - Next;
    }
    for (const Event &E : Sched.trace())
      Kinds[Run].push_back(E.Kind);
  }
  EXPECT_EQ(Kinds[0], Kinds[1]);
}
