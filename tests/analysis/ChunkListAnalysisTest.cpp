//===- tests/analysis/ChunkListAnalysisTest.cpp - Chunk list races -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Runs VblChunkList under AnalyzedPolicy and asserts the
/// happens-before detector finds ZERO races and the per-step flow oracle
/// (F1-F7) no violation. Two chunk shapes run the shared corpus: K=1
/// (every second insert into a chunk is structural, so the corpus
/// maximizes freeze/replace churn) and K=2 (mixes the in-chunk slot
/// path with splits and merges); K=4 runs the targeted merge scenarios
/// (chunkMergeScenarios). Targeted scenarios pin the chunk-specific
/// windows down, among them:
///
///  - split_vs_traversal: a full chunk is frozen and replaced by a
///    median split while another thread scans it without locks. The
///    scan's plain slot reads must be ordered against the writer's
///    occupancy/next publications.
///  - unlink_vs_insert: a chunk is emptied and unlinked while another
///    thread routes an insert through it. The marked-unlink handshake
///    must order the unlinker's writes against the inserter's
///    validation reads.
///
//===----------------------------------------------------------------------===//

#include "core/VblChunkList.h"
#include "reclaim/LeakyDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace vbl;
using namespace vbl::sched;

namespace {

/// Chunk traversals log more accesses per op than the flat lists (one
/// record per occupied slot), so the per-scenario cap sits below the
/// CleanListsTest budget; a synchronization-discipline race still
/// surfaces within the first few dozen interleavings because the
/// detector checks every access pair of every episode.
/// Every exploration here deepens under VBL_EXPLORE_EPISODES (the
/// nightly raises it past the PR budgets); \p Default is the PR cap.
size_t episodeCapOr(size_t Default) {
  if (const char *Env = std::getenv("VBL_EXPLORE_EPISODES"))
    if (long Cap = std::atol(Env); Cap > 0)
      return static_cast<size_t>(Cap);
  return Default;
}

size_t corpusEpisodeCap() { return episodeCapOr(300); }

using ChunkK1 = VblChunkList<1, reclaim::LeakyDomain, AnalyzedPolicy>;
using ChunkK2 = VblChunkList<2, reclaim::LeakyDomain, AnalyzedPolicy>;
using ChunkK4 = VblChunkList<4, reclaim::LeakyDomain, AnalyzedPolicy>;

/// Race detector + flow oracle over one scenario. The corpus factory
/// wires flowView() automatically, so every episode's flow reports are
/// computed anyway; a merge that swung before marking both sources
/// would trip F6 (unlinked-while-unmarked) here.
template <class ListT>
void expectRaceFree(const Scenario &S, const char *ListName,
                    size_t EpisodeCap) {
  InterleavingExplorer Explorer(factoryFor<ListT>(S));
  size_t Episodes = 0;
  size_t Accesses = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        Accesses += Result.Raw.size();
        for (const analysis::RaceReport &Report : Result.Races)
          ADD_FAILURE() << ListName << " / " << S.Name << ": "
                        << Report.toString();
        for (const analysis::FlowReport &Report : Result.FlowViolations)
          ADD_FAILURE() << ListName << " / " << S.Name << ": "
                        << Report.toString();
      },
      std::min(S.MaxEpisodes, EpisodeCap));
  EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
  EXPECT_GT(Accesses, 0u) << ListName << " / " << S.Name
                          << ": no accesses logged — is the policy wired?";
}

/// The generic corpus. On K=2 every remove that leaves one key arms a
/// merge probe, so the corpus also drives merges.
template <class ListT> void expectRaceFreeCorpus(const char *ListName) {
  for (const Scenario &S : scenarios())
    expectRaceFree<ListT>(S, ListName, corpusEpisodeCap());
}

TEST(ChunkListAnalysisTest, K1CorpusIsRaceFree) {
  expectRaceFreeCorpus<ChunkK1>("VblChunkList<1>");
}

TEST(ChunkListAnalysisTest, K2CorpusIsRaceFree) {
  expectRaceFreeCorpus<ChunkK2>("VblChunkList<2>");
}

// With K=2 the prefill {1, 2} packs one full chunk (anchor 1, both
// slots occupied). The insert of 3 finds no clean slot, freezes the
// chunk and replaces it with a median split while the other thread
// scans the frozen chunk's slots without taking any lock.
TEST(ChunkListAnalysisTest, SplitVsTraversal) {
  const Scenario S{"split_vs_traversal",
                   {1, 2},
                   {{{SetOp::Insert, 3}},
                    {{SetOp::Contains, 2}, {SetOp::Contains, 1}}},
                   {1, 2, 3},
                   60000};
  expectRaceFree<ChunkK2>(S, "VblChunkList<2>", episodeCapOr(4000));
}

// The remove empties the prefilled chunk (anchor 5) and best-effort
// unlinks it; the insert of 6 routes through that same chunk — either
// storing into it before the unlink or restarting past the mark.
TEST(ChunkListAnalysisTest, UnlinkVsInsert) {
  const Scenario S{"unlink_vs_insert",
                   {5},
                   {{{SetOp::Remove, 5}}, {{SetOp::Insert, 6}}},
                   {5, 6},
                   60000};
  expectRaceFree<ChunkK2>(S, "VblChunkList<2>", episodeCapOr(4000));
  expectRaceFree<ChunkK1>(S, "VblChunkList<1>", episodeCapOr(4000));
}

// A remove racing the freeze of its own chunk: with K=1 the insert of
// 2 finds chunk {1} full and freezes/replaces it (the replacement
// still carries 1) while the remove of 1 probes the version and reads
// liveness. This is the lost-remove window: remove's Marked read must
// sit between its probe and its acquisition, else the lock's fast path
// clears a slot in the retired copy and the live key survives.
TEST(ChunkListAnalysisTest, RemoveVsFreeze) {
  const Scenario S{"remove_vs_freeze",
                   {1},
                   {{{SetOp::Remove, 1}}, {{SetOp::Insert, 2}}},
                   {1, 2},
                   60000};
  expectRaceFree<ChunkK1>(S, "VblChunkList<1>", episodeCapOr(4000));
}

// A scan's optimistic window racing a median split: the insert of 3
// freezes the full chunk {1, 2} and publishes the split while the
// scanner records the chunk's version, collects its slots and
// revalidates. Every interleaving must be race-free — the scan's
// unlocked slot reads are ordered by the seqlock protocol, and a
// version bump between collect and validate forces the retry/fallback
// path rather than a torn window.
TEST(ChunkListAnalysisTest, ScanVsSplit) {
  const Scenario S{"scan_vs_split",
                   {1, 2},
                   {{{SetOp::Insert, 3}}, {{SetOp::RangeQuery, 1, 7}}},
                   {1, 2, 3},
                   60000};
  expectRaceFree<ChunkK2>(S, "VblChunkList<2>", episodeCapOr(4000));
  expectRaceFree<ChunkK1>(S, "VblChunkList<1>", episodeCapOr(4000));
}

// A scan racing the unlink of an emptied chunk inside its window: the
// remove empties the chunk (anchor 5) and best-effort unlinks it while
// the scanner's window walk reads its Next/Marked words.
TEST(ChunkListAnalysisTest, ScanVsChunkUnlink) {
  const Scenario S{"scan_vs_chunk_unlink",
                   {5},
                   {{{SetOp::Remove, 5}}, {{SetOp::RangeQuery, 1, 9}}},
                   {5},
                   60000};
  expectRaceFree<ChunkK2>(S, "VblChunkList<2>", episodeCapOr(4000));
  expectRaceFree<ChunkK1>(S, "VblChunkList<1>", episodeCapOr(4000));
}

// Same-chunk insert/remove interleaving with the chunk teetering on
// the full/empty boundary: slot writes, occupancy clears, compactions
// and unlinks all collide on one chunk.
TEST(ChunkListAnalysisTest, FullChunkToggleChain) {
  const Scenario S{"full_chunk_toggle",
                   {1, 2},
                   {{{SetOp::Remove, 1}, {SetOp::Insert, 1}},
                    {{SetOp::Insert, 3}}},
                   {1, 2, 3},
                   60000};
  expectRaceFree<ChunkK2>(S, "VblChunkList<2>", episodeCapOr(4000));
}

// The targeted merge corpus needs K=4 (see chunkMergeScenarios):
// prefill {1..5} lays out {1,2} -> {3,4,5}, and removing from the first
// chunk makes the 4-key union fit exactly.
TEST(ChunkListAnalysisTest, MergeScenariosAreClean) {
  for (const Scenario &S : chunkMergeScenarios())
    expectRaceFree<ChunkK4>(S, "VblChunkList<4>", episodeCapOr(2000));
}

} // namespace
