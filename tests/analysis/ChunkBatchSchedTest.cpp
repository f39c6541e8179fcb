//===- tests/analysis/ChunkBatchSchedTest.cpp - Chunk batch vs freeze ----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Drives VblChunkList::applyBatchSorted under the deterministic
/// scheduler with AnalyzedPolicy, against an insert that freezes and
/// replaces the chunk the batch's cursor holds. Thread 1 applies a
/// two-op sorted batch whose keys route to one prefilled chunk; thread
/// 0 inserts a key routed to the same chunk, which has no clean slot,
/// so the insert freezes it and swings in a split.
///
///  - Every explored interleaving must be race-free (happens-before
///    detector), flow-clean (the per-step flow oracle) and return the
///    expected result for every op, leaving the expected keys.
///  - A forced schedule — the batch's first op, then the whole insert,
///    then the batch's second op — must show the second op finding its
///    cursor chunk marked and re-routing from the head: the window
///    VblChunkList::resume() exists for.
///
/// Two more chunk-list explorations ride along:
///
///  - merges under VBR: the merge corpus (chunkMergeScenarios) over a
///    K=4 list on the version-based domain, where one merge retires two
///    chunks that the same thread's next allocation revives at once.
///    Every explored interleaving must be race-free and flow-clean, and
///    vacuity guards require merges and block reuse to have happened.
///  - the freeze-window restart: a forced schedule parks a freezer
///    between its mark and its swing, and the other thread's update
///    restarts on the marked, still-linked chunk without ever locking.
///
/// Kept out of analysis_chunklist_test and analysis_vbr_test, whose
/// runtimes already bound the sanitizer CI cells.
///
//===----------------------------------------------------------------------===//

#include "core/VblChunkList.h"
#include "reclaim/LeakyDomain.h"
#include "reclaim/VbrDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"
#include "sched/StepScheduler.h"
#include "sched/TracedPolicy.h"
#include "stats/Stats.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <vector>

using namespace vbl;
using namespace vbl::sched;

namespace {

/// Deepens under VBL_EXPLORE_EPISODES like the other exploration tests.
size_t episodeCapOr(size_t Default) {
  if (const char *Env = std::getenv("VBL_EXPLORE_EPISODES"))
    if (long Cap = std::atol(Env); Cap > 0)
      return static_cast<size_t>(Cap);
  return Default;
}

struct BatchScenario {
  std::vector<SetKey> Prefill;
  /// Thread 1's batch, already in (key, submission) order.
  std::array<std::pair<SetOp, SetKey>, 2> Batch;
  /// Thread 0's freezing insert.
  SetKey InsertKey;
  std::array<bool, 2> BatchResults;
  std::vector<SetKey> Final;
};

template <class ListT> struct BatchWorld {
  ListT List;
  std::array<BatchOp, 2> Batch;
  bool InsertResult = false;
};

/// One episode: thread 0 runs the insert (unless \p WithInsert is
/// false, which leaves thread 1 running alone), thread 1 the batch.
template <class ListT>
EpisodeFactory
factoryFor(const BatchScenario &S,
           std::shared_ptr<BatchWorld<ListT>> *WorldOut,
           bool WithInsert = true) {
  return [S, WorldOut, WithInsert]() -> Episode {
    auto World = std::make_shared<BatchWorld<ListT>>();
    if (WorldOut)
      *WorldOut = World;
    for (SetKey Key : S.Prefill)
      World->List.insert(Key);
    for (size_t I = 0; I != 2; ++I)
      World->Batch[I] = {S.Batch[I].first, S.Batch[I].second};
    Episode Ep;
    Ep.HeadNode = World->List.headNode();
    Ep.InitialChain = World->List.nodeChain();
    Ep.Flow = World->List.flowView();
    Ep.Holder = World;
    if (WithInsert)
      Ep.Bodies.push_back(std::function<void()>([World, Key = S.InsertKey] {
        World->InsertResult = tracedOp(SetOp::Insert, Key, [&] {
          return World->List.insert(Key);
        });
      }));
    Ep.Bodies.push_back(std::function<void()>([World] {
      BatchOp *Sorted[2] = {&World->Batch[0], &World->Batch[1]};
      World->List.applyBatchSorted(Sorted, 2);
    }));
    return Ep;
  };
}

template <class ListT>
void expectCleanAndCorrect(const BatchScenario &S,
                           const std::shared_ptr<BatchWorld<ListT>> &World,
                           const EpisodeResult &Result) {
  EXPECT_FALSE(Result.Deadlocked);
  for (const analysis::RaceReport &Report : Result.Races)
    ADD_FAILURE() << Report.toString();
  for (const analysis::FlowReport &Report : Result.FlowViolations)
    ADD_FAILURE() << Report.toString();
  EXPECT_TRUE(World->InsertResult);
  for (size_t I = 0; I != 2; ++I)
    EXPECT_EQ(World->Batch[I].Result, S.BatchResults[I]) << "batch op " << I;
  EXPECT_EQ(World->List.snapshot(), S.Final);
  EXPECT_TRUE(World->List.checkInvariants());
}

/// True when thread 1 (the batch) reads the frozen chunk's mark as set
/// after thread 0's freeze and then starts a route at the head.
bool batchReroutedFromHead(const EpisodeResult &Result,
                           const void *FrozenChunk) {
  const std::vector<Event> &Events = Result.Raw.events();
  const auto Frozen = [&](const Event &E) {
    return E.Kind == EventKind::Write && E.Field == MemField::Marked &&
           E.Node == FrozenChunk && E.Value == 1;
  };
  auto It = std::find_if(Events.begin(), Events.end(), Frozen);
  bool SawMark = false;
  for (; It != Events.end(); ++It) {
    if (It->Thread != 1)
      continue;
    if (It->Kind == EventKind::Read && It->Field == MemField::Marked &&
        It->Node == FrozenChunk && It->Value == 1)
      SawMark = true;
    else if (SawMark && It->Kind == EventKind::Read &&
             It->Field == MemField::Next && It->Node == Result.Meta.HeadNode)
      return true;
  }
  return false;
}

template <class ListT>
void runBatchVsFreeze(const BatchScenario &S, size_t EpisodeCap) {
  std::shared_ptr<BatchWorld<ListT>> World;
  InterleavingExplorer Explorer(factoryFor<ListT>(S, &World));
  size_t Episodes = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        expectCleanAndCorrect(S, World, Result);
      },
      EpisodeCap);
  EXPECT_GT(Episodes, 0u);

  // Forced schedule: thread 1 runs its first op alone, then the default
  // grant (lowest runnable thread) runs thread 0's insert to completion
  // — thread 1 holds no lock between ops — and thread 1 finishes. The
  // first op is a contains, one step per read, so its length is the
  // number of events a solo run of the batch records before its first
  // read of the prefilled chunk's mark: the second op's resume() check.
  InterleavingExplorer Solo(factoryFor<ListT>(S, nullptr,
                                              /*WithInsert=*/false));
  const EpisodeResult Alone = Solo.run({});
  const std::vector<Event> &Steps = Alone.Raw.events();
  const auto Resume =
      std::find_if(Steps.begin(), Steps.end(), [&](const Event &E) {
        return E.Kind == EventKind::Read && E.Field == MemField::Marked &&
               E.Node == Alone.Meta.InitialChain[1].first;
      });
  ASSERT_NE(Resume, Steps.end());
  const EpisodeResult Forced = Explorer.run(
      std::vector<unsigned>(static_cast<size_t>(Resume - Steps.begin()), 1));
  expectCleanAndCorrect(S, World, Forced);
  EXPECT_TRUE(batchReroutedFromHead(Forced, Forced.Meta.InitialChain[1].first))
      << Forced.Raw.toString();
}

using ChunkK1 = VblChunkList<1, reclaim::LeakyDomain, AnalyzedPolicy>;
using ChunkK2 = VblChunkList<2, reclaim::LeakyDomain, AnalyzedPolicy>;

// K=1: chunk {1} is full. The batch's contains(1) and insert(2) both
// route to it; insert(3) splits it into {1} -> {3}, and the batch's
// insert(2) must land in whichever chunk then covers 2.
TEST(ChunkBatchSchedTest, K1BatchVsFreeze) {
  const BatchScenario S{{1},
                        {{{SetOp::Contains, 1}, {SetOp::Insert, 2}}},
                        3,
                        {true, true},
                        {1, 2, 3}};
  runBatchVsFreeze<ChunkK1>(S, episodeCapOr(1500));
}

// K=2: chunk {1, 2} is full. The batch's contains(1) and remove(2)
// both route to it; insert(3) splits it into {1} -> {2, 3}, and the
// batch's remove(2) must find 2 in the upper half.
TEST(ChunkBatchSchedTest, K2BatchVsFreeze) {
  const BatchScenario S{{1, 2},
                        {{{SetOp::Contains, 1}, {SetOp::Remove, 2}}},
                        3,
                        {true, true},
                        {1, 3}};
  runBatchVsFreeze<ChunkK2>(S, episodeCapOr(1500));
}

//===----------------------------------------------------------------===//
// Merges under version-based reclamation
//===----------------------------------------------------------------===//

/// The merge corpus over \p ListT (a K=4 list on a VBR domain): every
/// explored episode must be race-free and flow-clean. Vacuity: some
/// episode merged, and some episode revived a retired chunk — a merge's
/// two sources go straight to the retiring thread's free list, so its
/// next allocation (chunk_heat_toggle's re-insert splits the merged
/// chunk) reuses them while the other thread may still read them. The
/// PR cap of 500 episodes per scenario keeps this binary well inside
/// its timeout under the sanitizers; the nightly deepens it.
template <class ListT> void expectMergesCleanUnderVbr(const char *ListName) {
  const stats::Snapshot Before = stats::snapshotAll();
  size_t ReusedEpisodes = 0;
  for (const Scenario &S : chunkMergeScenarios()) {
    std::shared_ptr<ListT> List;
    InterleavingExplorer Explorer(factoryForWith(S, [&List] {
      List = std::make_shared<ListT>();
      return List;
    }));
    size_t Episodes = 0;
    Explorer.exploreAll(
        [&](const EpisodeResult &Result) {
          ++Episodes;
          EXPECT_FALSE(Result.Deadlocked) << ListName << " / " << S.Name;
          for (const analysis::RaceReport &Report : Result.Races)
            ADD_FAILURE() << ListName << " / " << S.Name << ": "
                          << Report.toString();
          for (const analysis::FlowReport &Report : Result.FlowViolations)
            ADD_FAILURE() << ListName << " / " << S.Name << ": "
                          << Report.toString();
          ReusedEpisodes += List->reclaimDomain().reusedCount() > 0;
        },
        std::min(S.MaxEpisodes, episodeCapOr(500)));
    EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
  }
  EXPECT_GT(ReusedEpisodes, 0u)
      << ListName << ": no episode revived a retired chunk";
  if (stats::Enabled) {
    const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
    EXPECT_GT(Delta.get(stats::Counter::ChunkMerges), 0u)
        << ListName << ": no episode merged two chunks";
  }
}

TEST(ChunkBatchSchedTest, VbrMergeScenariosAreRaceFree) {
  expectMergesCleanUnderVbr<VblChunkList<
      4, reclaim::BasicVbrDomain<AnalyzedPolicy>, AnalyzedPolicy>>(
      "VblChunkList<4>+VBR");
}

TEST(ChunkBatchSchedTest, VbrMergeScenariosAreFlowClean) {
  expectMergesCleanUnderVbr<VblChunkList<
      4, reclaim::BasicVbrDomain<TracedPolicy>, TracedPolicy>>(
      "VblChunkList<4>+VBR");
}

//===----------------------------------------------------------------===//
// The freeze-window restart
//===----------------------------------------------------------------===//

// K=1: chunk {1} is full, so thread 1's insert(2) freezes it and swings
// in the split {1} -> {2}. Parked between its Marked write and its
// Pred->Next swing, thread 1 holds the head's and the chunk's locks;
// thread 0's remove(1) routes to the marked, still-linked chunk, reads
// the mark and restarts, again and again, without reaching a lock. Only
// the freezer's two remaining steps end the window, which is why a
// schedule that keeps granting thread 0 (the explorer's lowest-thread
// extension after such a prefix) never finishes.
TEST(ChunkBatchSchedTest, K1FreezeWindowRestartsWithoutLocking) {
  auto List = std::make_shared<ChunkK1>();
  ASSERT_TRUE(List->insert(1));
  const void *Frozen = List->nodeChain()[1].first;
  bool RemoveResult = false;
  bool InsertResult = false;
  StepScheduler Sched({[&] {
                         RemoveResult = tracedOp(SetOp::Remove, 1, [&] {
                           return List->remove(1);
                         });
                       },
                       [&] {
                         InsertResult = tracedOp(SetOp::Insert, 2, [&] {
                           return List->insert(2);
                         });
                       }});
  const auto Count = [&](unsigned Thread, auto Pred) {
    size_t N = 0;
    for (const Event &E : Sched.trace())
      N += E.Thread == Thread && Pred(E);
    return N;
  };
  const auto IsFreeze = [&](const Event &E) {
    return E.Kind == EventKind::Write && E.Field == MemField::Marked &&
           E.Node == Frozen && E.Value == 1;
  };
  // 1. Thread 1 up to (and including) its freeze mark.
  for (int I = 0; I != 300 && Count(1, IsFreeze) == 0; ++I)
    Sched.step(1);
  ASSERT_EQ(Count(1, IsFreeze), 1u) << Sched.schedule().toString();
  ASSERT_TRUE(Sched.runnable(1));
  // 2. Thread 0 restarts on the frozen chunk.
  const auto IsRestart = [](const Event &E) {
    return E.Kind == EventKind::Restart;
  };
  for (int I = 0; I != 300 && Count(0, IsRestart) < 3; ++I) {
    ASSERT_TRUE(Sched.runnable(0)) << Sched.schedule().toString();
    Sched.step(0);
  }
  EXPECT_GE(Count(0, IsRestart), 3u) << Sched.schedule().toString();
  EXPECT_EQ(Count(0,
                  [](const Event &E) {
                    return E.Kind == EventKind::LockAcquire ||
                           E.Kind == EventKind::LockBlocked ||
                           E.Kind == EventKind::Write;
                  }),
            0u)
      << Sched.schedule().toString();
  // 3. The freezer's swing ends the window; then the remove completes.
  while (Sched.runnable(1))
    Sched.step(1);
  ASSERT_TRUE(Sched.finished(1));
  while (Sched.runnable(0))
    Sched.step(0);
  ASSERT_TRUE(Sched.finished(0));
  EXPECT_TRUE(InsertResult);
  EXPECT_TRUE(RemoveResult);
  EXPECT_EQ(List->snapshot(), (std::vector<SetKey>{2}));
  EXPECT_TRUE(List->checkInvariants());
}

} // namespace
