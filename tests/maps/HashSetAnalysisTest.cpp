//===- tests/maps/HashSetAnalysisTest.cpp - Hash set is race-free --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Drives the split-ordered hash set (both substrates) under
/// AnalyzedPolicy through the hash scenario corpus and asserts the
/// happens-before detector finds ZERO races and the flow oracle (F1-F7)
/// no violation in every explored interleaving. The sets are built
/// with InitialBuckets=1 and GrowLoadFactor=1 so episode inserts
/// trigger bucket-index growth and lazy dummy splicing concurrently
/// with the other thread — the resize-vs-insert pairing is explored,
/// not just steady-state ops.
///
/// The default episode cap keeps PR runs fast (the corpus's value is
/// breadth; synchronization bugs show up within the first few hundred
/// interleavings). Nightly CI raises it via VBL_EXPLORE_EPISODES to
/// walk a much deeper prefix of each interleaving tree.
///
//===----------------------------------------------------------------------===//

#include "maps/SplitOrderedHashSet.h"

#include "core/VblList.h"
#include "lists/HarrisMichaelList.h"
#include "reclaim/LeakyDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace vbl;
using namespace vbl::sched;

namespace {

template <class HashT> void expectRaceFreeHashCorpus(const char *SetName) {
  const size_t Cap = episodeCapOr(300);
  for (const Scenario &S : hashSetScenarios()) {
    InterleavingExplorer Explorer(factoryForWith(S, [] {
      HashSetConfig C;
      C.InitialBuckets = 1;
      C.GrowLoadFactor = 1;
      return std::make_shared<HashT>(C);
    }));
    size_t Episodes = 0;
    size_t Accesses = 0;
    Explorer.exploreAll(
        [&](const EpisodeResult &Result) {
          ++Episodes;
          Accesses += Result.Raw.size();
          for (const analysis::RaceReport &Report : Result.Races)
            ADD_FAILURE() << SetName << " / " << S.Name << ": "
                          << Report.toString();
          for (const analysis::FlowReport &Report : Result.FlowViolations)
            ADD_FAILURE() << SetName << " / " << S.Name << ": "
                          << Report.toString();
        },
        std::min(S.MaxEpisodes, Cap));
    EXPECT_GT(Episodes, 0u) << SetName << " / " << S.Name;
    EXPECT_GT(Accesses, 0u) << SetName << " / " << S.Name
                            << ": no accesses logged — is the policy wired?";
  }
}

TEST(HashSetAnalysisTest, HarrisMichaelBackendIsRaceFree) {
  expectRaceFreeHashCorpus<maps::SplitOrderedHashSet<
      HarrisMichaelList<reclaim::LeakyDomain, AnalyzedPolicy>>>(
      "SplitOrderedHashSet<HarrisMichael>");
}

TEST(HashSetAnalysisTest, VblBackendIsRaceFree) {
  expectRaceFreeHashCorpus<maps::SplitOrderedHashSet<
      VblList<reclaim::LeakyDomain, AnalyzedPolicy>>>(
      "SplitOrderedHashSet<Vbl>");
}

/// Same drill over the resize corpus, against tables with a tight
/// shrink watermark (GrowLoadFactor=1, ShrinkDivisor=2, MinBuckets=1):
/// episode removes cross it, so halving index swaps interleave with the
/// other thread's traversal in-episode.
template <class HashT>
void expectRaceFreeResizeCorpus(const char *SetName) {
  const size_t Cap = episodeCapOr(300);
  for (const Scenario &S : hashResizeScenarios()) {
    InterleavingExplorer Explorer(factoryForWith(S, [] {
      HashSetConfig C;
      C.InitialBuckets = 1;
      C.GrowLoadFactor = 1;
      C.MinBuckets = 1;
      C.ShrinkDivisor = 2;
      return std::make_shared<HashT>(C);
    }));
    size_t Episodes = 0;
    size_t Accesses = 0;
    Explorer.exploreAll(
        [&](const EpisodeResult &Result) {
          ++Episodes;
          Accesses += Result.Raw.size();
          for (const analysis::RaceReport &Report : Result.Races)
            ADD_FAILURE() << SetName << " / " << S.Name << ": "
                          << Report.toString();
          for (const analysis::FlowReport &Report : Result.FlowViolations)
            ADD_FAILURE() << SetName << " / " << S.Name << ": "
                          << Report.toString();
        },
        std::min(S.MaxEpisodes, Cap));
    EXPECT_GT(Episodes, 0u) << SetName << " / " << S.Name;
    EXPECT_GT(Accesses, 0u) << SetName << " / " << S.Name
                            << ": no accesses logged — is the policy wired?";
  }
}

TEST(HashSetAnalysisTest, HarrisMichaelResizeIsRaceFree) {
  expectRaceFreeResizeCorpus<maps::SplitOrderedHashSet<
      HarrisMichaelList<reclaim::LeakyDomain, AnalyzedPolicy>>>(
      "SplitOrderedHashSet<HarrisMichael,resize>");
}

TEST(HashSetAnalysisTest, VblResizeIsRaceFree) {
  expectRaceFreeResizeCorpus<maps::SplitOrderedHashSet<
      VblList<reclaim::LeakyDomain, AnalyzedPolicy>>>(
      "SplitOrderedHashSet<Vbl,resize>");
}

} // namespace
