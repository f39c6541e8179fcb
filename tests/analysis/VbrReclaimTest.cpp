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
///    those very blocks.
///  - version-clock rollover: the same scenarios with the clock planted
///    at UINT64_MAX, so every retire/revive crosses the u64 wrap and
///    the signed-distance birth compare is what keeps readers sound.
///  - flow oracle: the shared corpus plus the VBR scenarios run with the
///    per-step flow-invariant checker (F1-F7) over TracedPolicy lists
///    backed by the VBR domain — the keyset/flow clauses must hold in
///    every interleaving despite immediate in-place reuse.
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

size_t episodeCap() { return episodeCapOr(120); }

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
/// events, so the detector audits the full production protocol.
template <class ListT>
void expectCorpusRaceFree(const char *ListName,
                          const std::vector<Scenario> &Scenarios,
                          size_t EpisodeCap) {
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
        },
        std::min(S.MaxEpisodes, episodeCapOr(EpisodeCap)));
    EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
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

/// Flow oracle over VBR-backed lists: the per-step keyset/flow clauses
/// (F1-F7) recomputed after every scheduler step must stay clean even
/// though unlinked blocks are revived — possibly relinked at a new key
/// — inside the same episode. The checker tracks nodes by address and
/// deliberately restarts tracking when an address reappears, so
/// immediate reuse is within its model.
template <class ListT>
void expectFlowClean(const char *ListName,
                     const std::vector<Scenario> &Scenarios) {
  const size_t Cap = episodeCap();
  const stats::Snapshot Before = stats::snapshotAll();
  for (const Scenario &S : Scenarios) {
    InterleavingExplorer Explorer(factoryFor<ListT>(S));
    size_t Episodes = 0;
    Explorer.exploreAll(
        [&](const EpisodeResult &Result) {
          ++Episodes;
          for (const analysis::FlowReport &Report : Result.FlowViolations)
            ADD_FAILURE() << ListName << " / " << S.Name << ": "
                          << Report.toString();
        },
        std::min(S.MaxEpisodes, Cap));
    EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
  }
  if (stats::Enabled) {
    const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
    EXPECT_GT(Delta.get(stats::Counter::AnalysisFlowChecks), 0u)
        << ListName << ": no flow snapshots taken";
  }
}

TEST(VbrReclaimTest, VblListVbrIsFlowClean) {
  expectFlowClean<VblList<TracedVbrDomain, TracedPolicy>>("VblList+VBR",
                                                          vbrScenarios());
}

TEST(VbrReclaimTest, LazyListVbrIsFlowClean) {
  expectFlowClean<LazyList<TracedVbrDomain, TracedPolicy>>("LazyList+VBR",
                                                           vbrScenarios());
}

TEST(VbrReclaimTest, ChunkListVbrIsFlowClean) {
  expectFlowClean<VblChunkList<1, TracedVbrDomain, TracedPolicy>>(
      "VblChunkList<1>+VBR", vbrScenarios());
}

TEST(VbrReclaimTest, VblListVbrSharedCorpusFlowClean) {
  expectFlowClean<VblList<TracedVbrDomain, TracedPolicy>>("VblList+VBR",
                                                          scenarios());
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

TEST(VbrReclaimTest, VblListScanRestartDiscardsPartialCollect) {
  expectScanRestartDiscardsCollect<VblList<TracedVbrDomain, TracedPolicy>>();
}

TEST(VbrReclaimTest, LazyListScanRestartDiscardsPartialCollect) {
  expectScanRestartDiscardsCollect<
      LazyList<TracedVbrDomain, TracedPolicy>>();
}

} // namespace
