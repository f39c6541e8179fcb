//===- tests/analysis/FlowCheckerTest.cpp - Real backends are flow-clean -===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Drives every backend through the shared scenario corpus with the
/// flow-invariant oracle (analysis/FlowInvariant.h) recomputing
/// node-local flow from the reachable heap snapshot after EVERY
/// scheduler step of EVERY explored interleaving, and asserts ZERO
/// violations:
///
///  - flat lists: VblList, LazyList, HarrisMichaelList (over the leaky
///    and the hazard-pointer domain), OptimisticList, HandOverHandList;
///  - the unrolled VblChunkList for K in {1, 2, 7, 15} (K=1 maximizes
///    freeze/replace churn, K=2 mixes slot and structural paths, 7 and
///    15 cover multi-slot intervals with interior splits);
///  - the split-ordered hash set over both substrates, built with
///    InitialBuckets=1 / GrowLoadFactor=1 so resizes and lazy dummy
///    splicing interleave with the flow snapshots.
///
/// Episodes run under plain TracedPolicy — the oracle only needs the
/// step gating, not the O(accesses^2) happens-before analysis — and
/// LeakyDomain, so unlinked nodes keep their identity for the
/// unlink-implies-marked clause. The hazard-pointer case keeps that
/// identity too: an episode retires far fewer nodes than the domain's
/// scan threshold, so nothing is freed mid-episode and the case checks
/// the protected traversal and its restarts, not frees. The default
/// episode cap keeps PR runs fast; nightly CI deepens the exploration
/// via VBL_EXPLORE_EPISODES.
///
//===----------------------------------------------------------------------===//

#include "core/VblChunkList.h"
#include "core/VblList.h"
#include "lists/HandOverHandList.h"
#include "lists/HarrisMichaelList.h"
#include "lists/LazyList.h"
#include "lists/OptimisticList.h"
#include "lists/SequentialList.h"
#include "maps/SplitOrderedHashSet.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/LeakyDomain.h"
#include "sched/InterleavingExplorer.h"
#include "stats/Stats.h"

#include "RacyList.h"
#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

using namespace vbl;
using namespace vbl::sched;

namespace {

// The LL spec and the race detector's toy list state no flow traits:
// the explorer runs them through wrong interleavings on purpose, so
// they must never feed the oracle through factoryForWith.
template <class T>
constexpr bool HasFlowView = requires(T &List) { List.flowView(); };
static_assert(!HasFlowView<SequentialList<TracedPolicy>> &&
              !HasFlowView<tests::RacyList<TracedPolicy>>);
static_assert(HasFlowView<VblList<reclaim::LeakyDomain, TracedPolicy>>);

size_t episodeCap() {
  if (const char *Env = std::getenv("VBL_EXPLORE_EPISODES"))
    if (long Cap = std::atol(Env); Cap > 0)
      return static_cast<size_t>(Cap);
  return 120;
}

/// Sweeps \p Scenarios against fresh instances from \p Make, failing on
/// any flow violation and asserting the oracle actually ran (episodes
/// explored, snapshots counted).
template <class MakeFn>
void expectFlowCleanCorpus(const char *ListName,
                           const std::vector<Scenario> &Scenarios,
                           MakeFn Make) {
  const size_t Cap = episodeCap();
  const stats::Snapshot Before = stats::snapshotAll();
  for (const Scenario &S : Scenarios) {
    InterleavingExplorer Explorer(factoryForWith(S, Make));
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
        << ListName << ": no flow snapshots taken — is flowView() wired "
           "into the episode factory?";
  }
}

template <class ListT> void expectFlowCleanLists(const char *ListName) {
  expectFlowCleanCorpus(ListName, scenarios(),
                        [] { return std::make_shared<ListT>(); });
}

TEST(FlowCheckerTest, VblListIsFlowClean) {
  expectFlowCleanLists<VblList<reclaim::LeakyDomain, TracedPolicy>>(
      "VblList");
}

TEST(FlowCheckerTest, LazyListIsFlowClean) {
  expectFlowCleanLists<LazyList<reclaim::LeakyDomain, TracedPolicy>>(
      "LazyList");
}

TEST(FlowCheckerTest, HarrisMichaelListIsFlowClean) {
  expectFlowCleanLists<HarrisMichaelList<reclaim::LeakyDomain, TracedPolicy>>(
      "HarrisMichaelList");
}

TEST(FlowCheckerTest, HarrisMichaelListHpIsFlowClean) {
  expectFlowCleanLists<
      HarrisMichaelList<reclaim::HazardPointerDomain, TracedPolicy>>(
      "HarrisMichaelList<HP>");
}

TEST(FlowCheckerTest, OptimisticListIsFlowClean) {
  expectFlowCleanLists<
      OptimisticList<reclaim::LeakyDomain, TasLock, TracedPolicy>>(
      "OptimisticList");
}

TEST(FlowCheckerTest, HandOverHandListIsFlowClean) {
  expectFlowCleanLists<HandOverHandList<TasLock, TracedPolicy>>(
      "HandOverHandList");
}

TEST(FlowCheckerTest, ChunkListK1IsFlowClean) {
  expectFlowCleanLists<VblChunkList<1, reclaim::LeakyDomain, TracedPolicy>>(
      "VblChunkList<1>");
}

TEST(FlowCheckerTest, ChunkListK2IsFlowClean) {
  expectFlowCleanLists<VblChunkList<2, reclaim::LeakyDomain, TracedPolicy>>(
      "VblChunkList<2>");
}

TEST(FlowCheckerTest, ChunkListK7IsFlowClean) {
  expectFlowCleanLists<VblChunkList<7, reclaim::LeakyDomain, TracedPolicy>>(
      "VblChunkList<7>");
}

TEST(FlowCheckerTest, ChunkListK15IsFlowClean) {
  expectFlowCleanLists<VblChunkList<15, reclaim::LeakyDomain, TracedPolicy>>(
      "VblChunkList<15>");
}

template <class HashT> void expectFlowCleanHash(const char *SetName) {
  expectFlowCleanCorpus(SetName, hashSetScenarios(), [] {
    HashSetConfig C;
    C.InitialBuckets = 1;
    C.GrowLoadFactor = 1;
    return std::make_shared<HashT>(C);
  });
}

TEST(FlowCheckerTest, HashSetHarrisMichaelBackendIsFlowClean) {
  expectFlowCleanHash<maps::SplitOrderedHashSet<
      HarrisMichaelList<reclaim::LeakyDomain, TracedPolicy>>>(
      "SplitOrderedHashSet<HarrisMichael>");
}

TEST(FlowCheckerTest, HashSetVblBackendIsFlowClean) {
  expectFlowCleanHash<maps::SplitOrderedHashSet<
      VblList<reclaim::LeakyDomain, TracedPolicy>>>(
      "SplitOrderedHashSet<Vbl>");
}

} // namespace
