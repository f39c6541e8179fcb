//===- tests/sched/ScheduleFiguresTest.cpp - Figs. 2 and 3 executable ----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The paper's two suboptimality counterexamples, made executable:
///
///  Fig. 2 — on the list {1}, schedule insert(2) up to (and including)
///  its node creation, then run insert(1) to completion, then let
///  insert(2) publish. The schedule is correct; the Lazy list rejects
///  it (insert(1) blocks on X1's lock, held by insert(2)); VBL accepts
///  it (a failing insert never locks).
///
///  Fig. 3 — Harris-Michael: after remove(2) logically deletes X2 but
///  fails its physical unlink (insert(1) won the CAS on head), two
///  failing inserts both try to help-unlink X2; the loser must restart
///  from the head, rejecting a correct schedule. VBL executes the
///  analogous interleavings with no restart and no lock.
///
//===----------------------------------------------------------------------===//

#include "core/VblList.h"
#include "lists/HarrisMichaelList.h"
#include "lists/LazyList.h"
#include "lists/SequentialList.h"
#include "reclaim/LeakyDomain.h"
#include "reclaim/VbrDomain.h"
#include "sched/InterleavingExplorer.h"
#include "sched/ScheduleChecker.h"
#include "sched/ScheduleExport.h"
#include "sched/StepScheduler.h"

#include <gtest/gtest.h>

using namespace vbl;
using namespace vbl::sched;

namespace {

using TracedVbl = VblList<reclaim::LeakyDomain, TracedPolicy>;
using TracedLazy = LazyList<reclaim::LeakyDomain, TracedPolicy>;
using TracedHm = HarrisMichaelList<reclaim::LeakyDomain, TracedPolicy>;
using TracedLL = SequentialList<TracedPolicy>;

/// Two single-op threads against a fresh list of type ListT.
template <class ListT>
EpisodeFactory twoOpFactory(std::vector<SetKey> Prefill,
                            std::pair<SetOp, SetKey> Op0,
                            std::pair<SetOp, SetKey> Op1) {
  return [=]() -> Episode {
    auto List = std::make_shared<ListT>();
    for (SetKey Key : Prefill)
      List->insert(Key);
    auto body = [List](std::pair<SetOp, SetKey> Spec) {
      return std::function<void()>([List, Spec] {
        const auto [Op, Key] = Spec;
        switch (Op) {
        case SetOp::Insert:
          tracedOp(SetOp::Insert, Key, [&] { return List->insert(Key); });
          break;
        case SetOp::Remove:
          tracedOp(SetOp::Remove, Key, [&] { return List->remove(Key); });
          break;
        case SetOp::Contains:
          tracedOp(SetOp::Contains, Key,
                   [&] { return List->contains(Key); });
          break;
        case SetOp::RangeQuery:
          vbl_unreachable("point-op helper; scan scenarios live in "
                          "ScenarioCorpus.h");
        }
      });
    };
    Episode Ep;
    Ep.HeadNode = List->headNode();
    Ep.InitialChain = List->nodeChain();
    Ep.Holder = List;
    Ep.Bodies = {body(Op0), body(Op1)};
    return Ep;
  };
}

/// Builds the Fig. 2 target schedule by interleaving the sequential
/// code: T1 = insert(2) runs up to its node creation, T0 = insert(1)
/// runs to completion (returns false), T1 publishes.
Schedule makeFig2Schedule(std::vector<std::pair<const void *, SetKey>>
                              *InitialChainOut = nullptr) {
  InterleavingExplorer Explorer(twoOpFactory<TracedLL>(
      {1}, {SetOp::Insert, 1}, {SetOp::Insert, 2}));
  // Step map (one access executes at the start of each step, see
  // StepScheduler): T1 insert(2): s1 begin, s2 read next(h), s3 read
  // val(X1), s4 read next(X1), s5 read val(tail) + newnode, s6 write +
  // end. T0 insert(1): s1 begin, s2 read next(h), s3 read val(X1) +
  // end(false).
  const EpisodeResult Result =
      Explorer.run({1, 1, 1, 1, 1, 0, 0, 0, 1});
  if (InitialChainOut)
    *InitialChainOut = Result.Meta.InitialChain;
  return exportLLSchedule(Result.Raw, Result.Meta.HeadNode);
}

} // namespace

TEST(Fig2, TargetScheduleShape) {
  const Schedule Target = makeFig2Schedule();
  // insert(1) must END before insert(2)'s write: that order is the
  // whole point of the schedule.
  int EndOfT0 = -1, WriteOfT1 = -1;
  const auto &Events = Target.events();
  for (size_t I = 0; I != Events.size(); ++I) {
    if (Events[I].Kind == EventKind::OpEnd && Events[I].Thread == 0)
      EndOfT0 = static_cast<int>(I);
    if (Events[I].Kind == EventKind::Write && Events[I].Thread == 1)
      WriteOfT1 = static_cast<int>(I);
  }
  ASSERT_NE(EndOfT0, -1);
  ASSERT_NE(WriteOfT1, -1);
  EXPECT_LT(EndOfT0, WriteOfT1) << Target.toString();
}

TEST(Fig2, ScheduleIsCorrect) {
  std::vector<std::pair<const void *, SetKey>> Chain;
  const Schedule Target = makeFig2Schedule(&Chain);
  const CorrectnessResult Check =
      checkScheduleCorrect(Target, Chain, {1, 2});
  EXPECT_TRUE(Check.correct()) << Check.Error;
}

TEST(Fig2, VblAcceptsTheSchedule) {
  const Schedule Target = makeFig2Schedule();
  const ReplayResult Replay = replaySchedule(
      twoOpFactory<TracedVbl>({1}, {SetOp::Insert, 1},
                              {SetOp::Insert, 2}),
      Target);
  EXPECT_TRUE(Replay.Accepted)
      << Replay.Reason << "\nraw:\n"
      << Replay.RawTrace.toString();
  // And the acceptance needed no synchronization at all on T0's side:
  // the failing insert(1) took no lock.
  for (const Event &E : Replay.RawTrace.events()) {
    if (E.Thread == 0) {
      EXPECT_NE(E.Kind, EventKind::LockAcquire)
          << "a failing VBL insert must not lock";
    }
  }
}

TEST(Fig2, LazyRejectsTheSchedule) {
  const Schedule Target = makeFig2Schedule();
  const ReplayResult Replay = replaySchedule(
      twoOpFactory<TracedLazy>({1}, {SetOp::Insert, 1},
                               {SetOp::Insert, 2}),
      Target);
  EXPECT_FALSE(Replay.Accepted);
  // The rejection is a lock: insert(1) needs X1's lock, held by
  // insert(2) which the schedule keeps un-scheduled until insert(1)
  // completes.
  bool T0Blocked = false;
  for (const Event &E : Replay.RawTrace.events())
    T0Blocked |= E.Thread == 0 && E.Kind == EventKind::LockBlocked;
  EXPECT_TRUE(T0Blocked) << Replay.Reason << "\n"
                         << Replay.RawTrace.toString();
}

//===----------------------------------------------------------------------===//
// Fig. 3
//===----------------------------------------------------------------------===//

namespace {

/// Steps \p Thread until \p Pred(trace) holds or the step budget runs
/// out; returns whether the predicate held.
bool stepUntil(StepScheduler &Sched, unsigned Thread,
               const std::function<bool(const std::vector<Event> &)> &Pred,
               int MaxSteps = 300) {
  for (int I = 0; I != MaxSteps; ++I) {
    if (Pred(Sched.trace()))
      return true;
    if (!Sched.runnable(Thread))
      return false;
    Sched.step(Thread);
  }
  return Pred(Sched.trace());
}

bool threadHasEvent(const std::vector<Event> &Trace, unsigned Thread,
                    EventKind Kind) {
  for (const Event &E : Trace)
    if (E.Thread == Thread && E.Kind == Kind)
      return true;
  return false;
}

} // namespace

TEST(Fig3, HarrisMichaelRejectsViaRestart) {
  // List {2,3,4}. Four logical threads play the paper's script.
  auto List = std::make_shared<TracedHm>();
  for (SetKey Key : {2, 3, 4})
    List->insert(Key);

  auto op = [List](SetOp Kind, SetKey Key) {
    return std::function<void()>([List, Kind, Key] {
      switch (Kind) {
      case SetOp::Insert:
        tracedOp(SetOp::Insert, Key, [&] { return List->insert(Key); });
        break;
      case SetOp::Remove:
        tracedOp(SetOp::Remove, Key, [&] { return List->remove(Key); });
        break;
      case SetOp::Contains:
        tracedOp(SetOp::Contains, Key,
                 [&] { return List->contains(Key); });
        break;
      case SetOp::RangeQuery:
        vbl_unreachable("point-op helper; scan scenarios live in "
                        "ScenarioCorpus.h");
      }
    });
  };

  StepScheduler Sched({op(SetOp::Insert, 1), op(SetOp::Remove, 2),
                       op(SetOp::Insert, 3), op(SetOp::Insert, 4)});

  // Phase A: insert(1) traverses past X2 while it is still unmarked
  // (two next-word reads: head and X2)...
  ASSERT_TRUE(stepUntil(Sched, 0, [](const std::vector<Event> &Trace) {
    int Reads = 0;
    for (const Event &E : Trace)
      if (E.Thread == 0 && E.Kind == EventKind::Read &&
          E.Field == MemField::Next)
        ++Reads;
    return Reads >= 2;
  }));
  // ...then remove(2) marks X2 (its first successful CAS)...
  ASSERT_TRUE(stepUntil(Sched, 1, [](const std::vector<Event> &Trace) {
    for (const Event &E : Trace)
      if (E.Thread == 1 && E.Kind == EventKind::Cas && E.Value2 == 1)
        return true;
    return false;
  }));
  // ...then insert(1) completes, winning the CAS on head...
  ASSERT_TRUE(stepUntil(Sched, 0, [&](const std::vector<Event> &) {
    return Sched.finished(0);
  }));
  // ...so remove(2)'s physical unlink fails, yet it completes with X2
  // still linked (delegation, not retry: no restart).
  ASSERT_TRUE(stepUntil(Sched, 1, [&](const std::vector<Event> &) {
    return Sched.finished(1);
  }));
  EXPECT_FALSE(threadHasEvent(Sched.trace(), 1, EventKind::Restart));

  // Phase B: insert(4) traverses up to (and including) reading the
  // marked X2's next word; it has then committed to helping.
  ASSERT_TRUE(stepUntil(Sched, 3, [](const std::vector<Event> &Trace) {
    int Reads = 0;
    for (const Event &E : Trace)
      if (E.Thread == 3 && E.Kind == EventKind::Read &&
          E.Field == MemField::Next)
        ++Reads;
    return Reads >= 3; // head, X1, X2's word (marked).
  }));
  // insert(3) runs to completion: it helps unlink X2 and returns false.
  ASSERT_TRUE(stepUntil(Sched, 2, [&](const std::vector<Event> &) {
    return Sched.finished(2);
  }));
  EXPECT_FALSE(threadHasEvent(Sched.trace(), 2, EventKind::Restart));

  // insert(4) now attempts the same unlink; its CAS fails and the
  // operation must RESTART from the head — the rejection of Fig. 3.
  ASSERT_TRUE(stepUntil(Sched, 3, [&](const std::vector<Event> &) {
    return Sched.finished(3);
  }));
  EXPECT_TRUE(threadHasEvent(Sched.trace(), 3, EventKind::Restart))
      << Sched.schedule().toString();

  // Semantics stayed intact throughout.
  const auto Ends = Sched.opEndEvents();
  ASSERT_EQ(Ends.size(), 4u);
  EXPECT_TRUE(List->checkInvariants());
  EXPECT_FALSE(List->contains(2));
}

TEST(Fig3, VblExecutesAnalogousInterleavingWithoutRestart) {
  // The pure-LL analogue after remove(2): two failing inserts traverse
  // the same region concurrently. VBL must complete every interleaving
  // of them with no restart and no lock (they are read-only).
  InterleavingExplorer Explorer(twoOpFactory<TracedVbl>(
      {1, 3, 4}, {SetOp::Insert, 3}, {SetOp::Insert, 4}));
  size_t Episodes = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        for (const Event &E : Result.Raw.events()) {
          EXPECT_NE(E.Kind, EventKind::Restart) << Result.Raw.toString();
          EXPECT_NE(E.Kind, EventKind::LockAcquire)
              << Result.Raw.toString();
        }
        // Both inserts fail: the keys are present.
        for (const Event &E : Result.Raw.events()) {
          if (E.Kind == EventKind::OpEnd) {
            EXPECT_EQ(E.Value, 0u) << Result.Raw.toString();
          }
        }
      },
      /*MaxEpisodes=*/30000);
  EXPECT_GT(Episodes, 100u) << "exploration space unexpectedly small";
}

TEST(Fig3, LazyLocksEvenWhenFailingInserts) {
  // Contrast: the Lazy list takes locks for the same failing inserts in
  // every interleaving — the metadata conflict the paper blames for the
  // Fig. 1 collapse.
  InterleavingExplorer Explorer(twoOpFactory<TracedLazy>(
      {1, 3, 4}, {SetOp::Insert, 3}, {SetOp::Insert, 4}));
  const EpisodeResult Result = Explorer.run({});
  bool SawLock = false;
  for (const Event &E : Result.Raw.events())
    SawLock |= E.Kind == EventKind::LockAcquire;
  EXPECT_TRUE(SawLock);
}

namespace {

/// Runs contains (present and absent) and a rangeQuery on one thread
/// over a list holding {2, 6} after 4 was removed, and returns the
/// raw trace.
template <class ListT> Schedule traceValueReads() {
  InterleavingExplorer Explorer([]() -> Episode {
    auto List = std::make_shared<ListT>();
    for (SetKey Key : {2, 4, 6})
      List->insert(Key);
    List->remove(4);
    Episode Ep;
    Ep.HeadNode = List->headNode();
    Ep.InitialChain = List->nodeChain();
    Ep.Holder = List;
    Ep.Bodies.push_back(std::function<void()>([List] {
      tracedOp(SetOp::Contains, 4, [&] { return List->contains(4); });
      tracedOp(SetOp::Contains, 6, [&] { return List->contains(6); });
      tracedRangeOp(1, 7, [&] {
        std::vector<SetKey> Keys;
        return List->rangeQuery(1, 7, Keys);
      });
    }));
    return Ep;
  });
  return Explorer.run({}).Raw;
}

/// The paper's value-based read path: VBL's contains and rangeQuery
/// read keys and next pointers only, never a deletion mark or a lock.
/// Version-based reclamation adds birth checks, and nothing else.
template <class ListT> void expectValueOnlyReads(const char *Name) {
  const Schedule Trace = traceValueReads<ListT>();
  size_t ValReads = 0;
  for (const Event &E : Trace.events()) {
    ValReads += E.Kind == EventKind::Read && E.Field == MemField::Val;
    EXPECT_NE(E.Field, MemField::Marked) << Name << "\n" << Trace.toString();
    EXPECT_NE(E.Field, MemField::Lock) << Name << "\n" << Trace.toString();
  }
  // Vacuity: both contains and the scan really walked the list.
  EXPECT_GE(ValReads, 6u) << Name << "\n" << Trace.toString();
}

} // namespace

TEST(ValueBasedReads, VblLeakyReadsNoMarkAndNoLock) {
  expectValueOnlyReads<TracedVbl>("VblList+leaky");
}

TEST(ValueBasedReads, VblVbrReadsNoMarkAndNoLock) {
  expectValueOnlyReads<
      VblList<reclaim::BasicVbrDomain<TracedPolicy>, TracedPolicy>>(
      "VblList+VBR");
}
