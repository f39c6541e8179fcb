//===- tests/analysis/PoolRecycleTest.cpp - Recycle vs traversal ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The node pool's sharpest hazard: a block retired by one operation
/// can be recycled into a brand-new node at the SAME address while
/// another thread's traversal still holds the episode open. The
/// happens-before chain that makes this safe is
///   reader guard exit (release announce)
///     -> collector scan (reads the announce)
///     -> epoch advance -> grace-period free -> pool reuse,
/// every link policy-mediated and therefore visible to the race
/// detector. These tests drive that exact shape — remove(k);
/// collectAll(); insert(k') against a concurrent contains(k) — through
/// the deterministic scheduler with EBR-backed, pool-backed lists under
/// AnalyzedPolicy, and assert zero races in every explored
/// interleaving. A counter asserts non-vacuity: at least one episode
/// really freed (hence recycled) the removed node.
///
/// The existing scenario corpus also runs against the EBR domain here
/// (CleanListsTest uses LeakyDomain, which never frees), so the pooled
/// allocation path is exercised under every corpus workload too.
///
//===----------------------------------------------------------------------===//

#include "core/VblList.h"
#include "lists/HarrisMichaelList.h"
#include "reclaim/EpochDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace vbl;
using namespace vbl::sched;

namespace {

using AnalyzedEpochDomain = reclaim::BasicEpochDomain<AnalyzedPolicy>;

/// remove(4) + collectAll + insert(7) on one thread, contains(4) on the
/// other. collectAll runs between ops with no guard held; its three
/// collection rounds advance the epoch past the retirement's grace
/// period whenever the reader is not pinning it, so the victim's block
/// is recycled into the insert within the same episode.
template <class ListT>
void exploreRecycleVsTraversal(const char *ListName, size_t MaxEpisodes) {
  std::atomic<size_t> FreedEpisodes{0};
  EpisodeFactory Factory = [&FreedEpisodes]() -> Episode {
    auto List = std::make_shared<ListT>();
    List->insert(4);
    Episode Ep;
    Ep.HeadNode = List->headNode();
    Ep.InitialChain = List->nodeChain();
    Ep.Holder = List;
    Ep.Bodies.push_back(std::function<void()>([List] {
      tracedOp(SetOp::Contains, 4, [&] { return List->contains(4); });
    }));
    Ep.Bodies.push_back(std::function<void()>([List, &FreedEpisodes] {
      tracedOp(SetOp::Remove, 4, [&] { return List->remove(4); });
      List->reclaimDomain().collectAll();
      tracedOp(SetOp::Insert, 7, [&] { return List->insert(7); });
      if (List->reclaimDomain().freedCount() > 0)
        FreedEpisodes.fetch_add(1, std::memory_order_relaxed);
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
      MaxEpisodes);
  EXPECT_GT(Episodes, 0u) << ListName;
  // Vacuity guard: the scenario must actually reach the recycle, not
  // just explore interleavings where the epoch never advanced.
  EXPECT_GT(FreedEpisodes.load(std::memory_order_relaxed), 0u)
      << ListName << ": no episode freed the removed node";
}

TEST(PoolRecycleTest, VblListRecycleVsTraversalRaceFree) {
  exploreRecycleVsTraversal<VblList<AnalyzedEpochDomain, AnalyzedPolicy>>(
      "VblList", 2000);
}

TEST(PoolRecycleTest, HarrisMichaelRecycleVsTraversalRaceFree) {
  exploreRecycleVsTraversal<
      HarrisMichaelList<AnalyzedEpochDomain, AnalyzedPolicy>>(
      "HarrisMichaelList", 2000);
}

/// The shared corpus against the real EBR domain: guard announcements,
/// retirement stamps and pool transfers are all traced events here, so
/// the detector checks the full production configuration (CleanListsTest
/// covers the same workloads with the leaky domain). The corpus factory
/// wires flowView(), so every episode is flow-checked (F1-F7) as well.
template <class ListT>
void expectCorpusRaceFree(const char *ListName, size_t EpisodeCap) {
  for (const Scenario &S : scenarios()) {
    InterleavingExplorer Explorer(factoryFor<ListT>(S));
    size_t Episodes = 0;
    Explorer.exploreAll(
        [&](const EpisodeResult &Result) {
          ++Episodes;
          for (const analysis::RaceReport &Report : Result.Races)
            ADD_FAILURE() << ListName << " / " << S.Name << ": "
                          << Report.toString();
          for (const analysis::FlowReport &Report : Result.FlowViolations)
            ADD_FAILURE() << ListName << " / " << S.Name << ": "
                          << Report.toString();
        },
        std::min(S.MaxEpisodes, EpisodeCap));
    EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
  }
}

TEST(PoolRecycleTest, VblListEpochDomainCorpusRaceFree) {
  expectCorpusRaceFree<VblList<AnalyzedEpochDomain, AnalyzedPolicy>>(
      "VblList+EBR", 200);
}

TEST(PoolRecycleTest, HarrisMichaelEpochDomainCorpusRaceFree) {
  expectCorpusRaceFree<
      HarrisMichaelList<AnalyzedEpochDomain, AnalyzedPolicy>>(
      "HarrisMichaelList+EBR", 200);
}

} // namespace
