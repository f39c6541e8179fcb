//===- tests/analysis/CleanListsTest.cpp - Real lists are race-free ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Runs VblList, LazyList and HarrisMichaelList (leaky and hazard
/// pointers) under AnalyzedPolicy through the shared scenario corpus
/// and asserts the happens-before detector finds ZERO races in every
/// explored interleaving: their relaxed accesses are confined to
/// unpublished nodes, every publication is a release store/CAS, and
/// every concurrent read is an acquire load or lock-protected — so no
/// conflicting pair is left unordered. An episode retires far fewer
/// nodes than the hazard domain's scan threshold, so the HP case checks
/// the protected traversal and its restarts, not frees.
///
/// Exploration is capped well below the optimality test's budget: the
/// point here is breadth across lists × scenarios, and a race in a
/// list's synchronization discipline is overwhelmingly exposed within
/// the first few hundred interleavings (the detector checks EVERY pair
/// of accesses in each one).
///
//===----------------------------------------------------------------------===//

#include "core/VblList.h"
#include "lists/HarrisMichaelList.h"
#include "lists/LazyList.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/LeakyDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

using namespace vbl;
using namespace vbl::sched;

namespace {

constexpr size_t EpisodeCap = 800;

template <class ListT> void expectRaceFreeCorpus(const char *ListName) {
  for (const Scenario &S : scenarios()) {
    InterleavingExplorer Explorer(factoryFor<ListT>(S));
    size_t Episodes = 0;
    size_t Accesses = 0;
    Explorer.exploreAll(
        [&](const EpisodeResult &Result) {
          ++Episodes;
          Accesses += Result.Raw.size();
          for (const analysis::RaceReport &Report : Result.Races)
            ADD_FAILURE() << ListName << " / " << S.Name
                          << ": " << Report.toString();
        },
        std::min(S.MaxEpisodes, EpisodeCap));
    EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
    EXPECT_GT(Accesses, 0u) << ListName << " / " << S.Name
                            << ": no accesses logged — is the policy wired?";
  }
}

TEST(CleanListsTest, VblListIsRaceFree) {
  expectRaceFreeCorpus<VblList<reclaim::LeakyDomain, AnalyzedPolicy>>(
      "VblList");
}

TEST(CleanListsTest, LazyListIsRaceFree) {
  expectRaceFreeCorpus<LazyList<reclaim::LeakyDomain, AnalyzedPolicy>>(
      "LazyList");
}

TEST(CleanListsTest, HarrisMichaelListIsRaceFree) {
  expectRaceFreeCorpus<
      HarrisMichaelList<reclaim::LeakyDomain, AnalyzedPolicy>>(
      "HarrisMichaelList");
}

TEST(CleanListsTest, HarrisMichaelListHpIsRaceFree) {
  expectRaceFreeCorpus<
      HarrisMichaelList<reclaim::HazardPointerDomain, AnalyzedPolicy>>(
      "HarrisMichaelList<HP>");
}

} // namespace
