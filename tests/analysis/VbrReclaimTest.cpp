//===- tests/analysis/VbrReclaimTest.cpp - VBR under the scheduler -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Version-based reclamation's sharpest hazards, driven through the
/// deterministic scheduler:
///
///  - recycle-vs-traversal: a block retired by one operation is revived
///    IN THE SAME EPISODE — no grace period, no collect call — while a
///    concurrent traversal holds certified pointers into it. The
///    birth-epoch checks must reject every stale read, and the whole
///    interleaving tree must come back race-free under AnalyzedPolicy
///    (the revival's release stores synchronize with the reader's
///    acquire loads through the stamped birth).
///  - stamp-vs-validate: an updater's lock validators re-certify the
///    (prev, curr) placement while another thread retires and revives
///    those very blocks, and a remove whose unlink target's successor
///    was revived after the remove began still finishes.
///  - version-clock rollover: the same scenarios with the clock planted
///    at UINT64_MAX, so every retire/revive crosses the u64 wrap and
///    the signed-distance birth compare is what keeps readers sound.
///  - flow oracle: the corpus sweeps (the VBR scenarios, plus the
///    shared corpus for VblList and LazyList) also fail on any per-step
///    flow-invariant (F1-F7) violation — the keyset/flow clauses must
///    hold in every interleaving despite immediate in-place reuse. The
///    checker tracks nodes by address and restarts tracking when an
///    address reappears, so a block revived (possibly relinked at a new
///    key) inside the episode is within its model.
///
/// Vacuity guards assert the episodes really revive blocks (domain
/// reuse counters), not merely explore interleavings where every
/// allocation stayed fresh.
///
//===----------------------------------------------------------------------===//

#include "core/VblChunkList.h"
#include "core/VblList.h"
#include "lists/LazyList.h"
#include "reclaim/VbrDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"
#include "sched/StepScheduler.h"
#include "stats/Stats.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>

using namespace vbl;
using namespace vbl::sched;

namespace {

using AnalyzedVbrDomain = reclaim::BasicVbrDomain<AnalyzedPolicy>;
using TracedVbrDomain = reclaim::BasicVbrDomain<TracedPolicy>;

/// remove(4); insert(7) against a concurrent contains(4). Unlike the
/// EBR variant (PoolRecycleTest) there is no collectAll between the
/// ops: retirement alone makes the block reusable, so the insert
/// revives the victim whenever the scheduler runs it after the remove.
/// \p StartClock lets the rollover tests plant the version clock.
template <class ListT>
void exploreRecycleVsTraversal(const char *ListName, size_t MaxEpisodes,
                               uint64_t StartClock = 0) {
  std::atomic<size_t> ReusedEpisodes{0};
  EpisodeFactory Factory = [&ReusedEpisodes, StartClock]() -> Episode {
    auto List = std::make_shared<ListT>();
    if (StartClock)
      List->reclaimDomain().setClockForTest(StartClock);
    List->insert(4);
    Episode Ep;
    Ep.HeadNode = List->headNode();
    Ep.InitialChain = List->nodeChain();
    Ep.Holder = List;
    Ep.Bodies.push_back(std::function<void()>([List] {
      tracedOp(SetOp::Contains, 4, [&] { return List->contains(4); });
    }));
    Ep.Bodies.push_back(std::function<void()>([List, &ReusedEpisodes] {
      tracedOp(SetOp::Remove, 4, [&] { return List->remove(4); });
      tracedOp(SetOp::Insert, 7, [&] { return List->insert(7); });
      if (List->reclaimDomain().reusedCount() > 0)
        ReusedEpisodes.fetch_add(1, std::memory_order_relaxed);
    }));
    return Ep;
  };

  InterleavingExplorer Explorer(Factory);
  size_t Episodes = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        EXPECT_FALSE(Result.Deadlocked) << ListName;
        for (const analysis::RaceReport &Report : Result.Races)
          ADD_FAILURE() << ListName << " recycle-vs-traversal: "
                        << Report.toString();
      },
      episodeCapOr(MaxEpisodes));
  EXPECT_GT(Episodes, 0u) << ListName;
  // Vacuity: the insert must really have revived the removed node's
  // block in at least one explored episode.
  EXPECT_GT(ReusedEpisodes.load(std::memory_order_relaxed), 0u)
      << ListName << ": no episode revived the removed node";
}

TEST(VbrReclaimTest, VblListRecycleVsTraversalRaceFree) {
  exploreRecycleVsTraversal<VblList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "VblList+VBR", 2000);
}

TEST(VbrReclaimTest, LazyListRecycleVsTraversalRaceFree) {
  exploreRecycleVsTraversal<LazyList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "LazyList+VBR", 2000);
}

TEST(VbrReclaimTest, ChunkListRecycleVsTraversalRaceFree) {
  // K=1: remove(4) empties the chunk and unlinks it; insert(7) revives
  // the retired chunk via the splice path — maximal structural churn.
  exploreRecycleVsTraversal<
      VblChunkList<1, AnalyzedVbrDomain, AnalyzedPolicy>>(
      "VblChunkList<1>+VBR", 1500);
}

TEST(VbrReclaimTest, VblListRolloverRecycleRaceFree) {
  exploreRecycleVsTraversal<VblList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "VblList+VBR@wrap", 1500, ~uint64_t{0});
}

TEST(VbrReclaimTest, LazyListRolloverRecycleRaceFree) {
  exploreRecycleVsTraversal<LazyList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "LazyList+VBR@wrap", 1500, ~uint64_t{0});
}

/// The VBR scenario set (stamp-vs-validate and friends) plus the shared
/// corpus, race-checked against the real VBR domain: guard snapshots,
/// birth stamps, clock bumps and freelist transfers are all traced
/// events, so the detector audits the full production protocol. The
/// corpus factory wires flowView(), so every episode is flow-checked
/// too.
template <class ListT>
void expectCorpusRaceFree(const char *ListName,
                          const std::vector<Scenario> &Scenarios,
                          size_t EpisodeCap) {
  const stats::Snapshot Before = stats::snapshotAll();
  for (const Scenario &S : Scenarios) {
    InterleavingExplorer Explorer(factoryFor<ListT>(S));
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
        },
        std::min(S.MaxEpisodes, episodeCapOr(EpisodeCap)));
    EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
  }
  if (stats::Enabled) {
    const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
    EXPECT_GT(Delta.get(stats::Counter::AnalysisFlowChecks), 0u)
        << ListName << ": no flow snapshots taken";
  }
}

TEST(VbrReclaimTest, VblListVbrScenariosRaceFree) {
  expectCorpusRaceFree<VblList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "VblList+VBR", vbrScenarios(), 200);
}

TEST(VbrReclaimTest, LazyListVbrScenariosRaceFree) {
  expectCorpusRaceFree<LazyList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "LazyList+VBR", vbrScenarios(), 200);
}

TEST(VbrReclaimTest, ChunkListVbrScenariosRaceFree) {
  expectCorpusRaceFree<VblChunkList<1, AnalyzedVbrDomain, AnalyzedPolicy>>(
      "VblChunkList<1>+VBR", vbrScenarios(), 120);
}

TEST(VbrReclaimTest, VblListSharedCorpusRaceFree) {
  expectCorpusRaceFree<VblList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "VblList+VBR", scenarios(), 120);
}

TEST(VbrReclaimTest, LazyListSharedCorpusRaceFree) {
  expectCorpusRaceFree<LazyList<AnalyzedVbrDomain, AnalyzedPolicy>>(
      "LazyList+VBR", scenarios(), 120);
}

/// vbr_scan_vs_revival driven into its restart: the scan reads node
/// 4's key and next, remove(4); insert(4) then revives that very block,
/// and the scan's birth check rejects it. The scan has collected 2 by
/// then; the corpus's scan-output check (ScenarioCorpus.h) fails the
/// test if the restart keeps that partial collect.
template <class ListT> void expectScanRestartDiscardsCollect() {
  Scenario S;
  for (const Scenario &Candidate : vbrScenarios())
    if (Candidate.Name == "vbr_scan_vs_revival")
      S = Candidate;
  ASSERT_EQ(S.Name, "vbr_scan_vs_revival");
  auto List = std::make_shared<ListT>();
  Episode Ep = factoryForWith(S, [List] { return List; })();
  StepScheduler Sched(Ep.Bodies);
  // The scan (thread 1) reads node 4's key, then its next word; its
  // birth check on node 4 is the next step.
  const void *Node4 = nullptr;
  for (int I = 0; I != 300 && Sched.runnable(1); ++I) {
    Sched.step(1);
    bool ReadNext = false;
    for (const Event &E : Sched.trace()) {
      if (E.Thread != 1 || E.Kind != EventKind::Read)
        continue;
      if (E.Field == MemField::Val && E.Value == 4)
        Node4 = E.Node;
      ReadNext |= Node4 && E.Field == MemField::Next && E.Node == Node4;
    }
    if (ReadNext)
      break;
  }
  ASSERT_NE(Node4, nullptr);
  // remove(4); insert(4) runs to completion and revives the block.
  while (Sched.runnable(0))
    Sched.step(0);
  ASSERT_TRUE(Sched.finished(0));
  EXPECT_GT(List->reclaimDomain().reusedCount(), 0u);
  while (Sched.runnable(1))
    Sched.step(1);
  ASSERT_TRUE(Sched.finished(1));
  bool Restarted = false;
  for (const Event &E : Sched.trace())
    Restarted |= E.Thread == 1 && E.Kind == EventKind::Restart;
  EXPECT_TRUE(Restarted) << Sched.schedule().toString();
}

/// remove(3) on {3, 7} while another thread runs remove(7); insert(5).
/// The insert revives 7's block as 5, right behind 3 and born after
/// the remover's guard version. The remover's unlink validation,
/// lockNextAt(3, successor), rejects that young successor, and its
/// restart walk stops at 3 without visiting it: unless the remove
/// refreshes its version, it retries the same rejected window forever
/// on a list nobody else touches.
TEST(VbrReclaimTest, VblListRemoveOutlivesRevivedSuccessor) {
  using ListT = VblList<TracedVbrDomain, TracedPolicy>;
  auto List = std::make_shared<ListT>();
  List->insert(3);
  List->insert(7);
  bool Removed = false;
  std::vector<std::function<void()>> Bodies;
  Bodies.push_back([List, &Removed] { Removed = List->remove(3); });
  Bodies.push_back([List] {
    List->remove(7);
    List->insert(5);
  });
  StepScheduler Sched(std::move(Bodies));
  // Thread 0 takes its guard and walks until it reads node 3's key.
  const auto ReadKey3 = [&Sched] {
    for (const Event &E : Sched.trace())
      if (E.Thread == 0 && E.Kind == EventKind::Read &&
          E.Field == MemField::Val && E.Value == 3)
        return true;
    return false;
  };
  for (int I = 0; I != 300 && Sched.runnable(0) && !ReadKey3(); ++I)
    Sched.step(0);
  ASSERT_TRUE(ReadKey3());
  while (Sched.runnable(1))
    Sched.step(1);
  ASSERT_TRUE(Sched.finished(1));
  ASSERT_GT(List->reclaimDomain().reusedCount(), 0u)
      << "the insert did not revive 7's block";
  // A few restarts at most; the unfixed remove never finishes.
  for (int I = 0; I != 5000 && Sched.runnable(0); ++I)
    Sched.step(0);
  ASSERT_TRUE(Sched.finished(0)) << "remove(3) is stuck restarting";
  EXPECT_TRUE(Removed);
  EXPECT_EQ(List->snapshot(), std::vector<SetKey>{5});
  EXPECT_TRUE(List->checkInvariants());
}

TEST(VbrReclaimTest, VblListScanRestartDiscardsPartialCollect) {
  expectScanRestartDiscardsCollect<VblList<TracedVbrDomain, TracedPolicy>>();
}

TEST(VbrReclaimTest, LazyListScanRestartDiscardsPartialCollect) {
  expectScanRestartDiscardsCollect<
      LazyList<TracedVbrDomain, TracedPolicy>>();
}

} // namespace
