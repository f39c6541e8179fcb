//===- tests/analysis/FlowMutantsTest.cpp - Seeded bugs are flagged ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The positive controls for the flow-invariant oracle: each mutant in
/// FlowMutantLists.h seeds exactly one flow bug, and the checker must
/// flag the EXACT clause — and only that clause — with a reproducing
/// schedule prefix that, replayed through InterleavingExplorer::run,
/// trips the same clause again:
///
///   RudeList        unlink without marking -> F6 UnlinkedUnmarked
///   ForgetfulList   mark without unlinking -> F7 MarkedLingers
///   SloppyChunkList out-of-interval publish -> F4 ChunkInterval
///
/// checkInvariants() runs the oracle's at-rest clauses, so the end
/// state of a sequential run that seeds each bug must fail it for
/// ForgetfulList (F7) and SloppyChunkList (F4) — and pass it for
/// RudeList, whose F6 is a history clause its end state cannot show.
///
//===----------------------------------------------------------------------===//

#include "analysis/FlowInvariant.h"
#include "sched/InterleavingExplorer.h"

#include "FlowMutantLists.h"
#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

using namespace vbl;
using namespace vbl::sched;

namespace {

constexpr size_t EpisodeCap = 500;

/// Explores \p S against \p ListT, asserting (a) at least one episode
/// reports \p Expected, (b) no episode reports any OTHER clause, and
/// (c) the first report's schedule prefix is non-empty and replaying it
/// reproduces the same clause.
template <class ListT>
void expectMutantFlagged(const Scenario &S, analysis::FlowClause Expected,
                         const char *ListName) {
  InterleavingExplorer Explorer(factoryFor<ListT>(S));
  std::optional<analysis::FlowReport> Found;
  size_t Episodes = 0;
  size_t Flagged = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        if (!Result.FlowViolations.empty())
          ++Flagged;
        for (const analysis::FlowReport &Report : Result.FlowViolations) {
          EXPECT_EQ(Report.Clause, Expected)
              << ListName << " / " << S.Name
              << ": flagged a clause other than "
              << analysis::flowClauseName(Expected) << ":\n"
              << Report.toString();
          if (!Found && Report.Clause == Expected)
            Found = Report;
        }
      },
      EpisodeCap);
  EXPECT_GT(Episodes, 0u) << ListName << " / " << S.Name;
  ASSERT_TRUE(Found.has_value())
      << ListName << " / " << S.Name << ": seeded bug never flagged ("
      << Episodes << " episodes explored)";
  EXPECT_GT(Flagged, 0u);

  // The report must carry a reproducer: the choice sequence up to and
  // including the step whose snapshot exposed the violation.
  EXPECT_FALSE(Found->SchedulePrefix.empty())
      << ListName << ": report has no schedule prefix:\n"
      << Found->toString();
  const EpisodeResult Replay = Explorer.run(Found->SchedulePrefix);
  bool Reproduced = false;
  for (const analysis::FlowReport &Report : Replay.FlowViolations)
    Reproduced |= Report.Clause == Expected;
  EXPECT_TRUE(Reproduced)
      << ListName << ": replaying the reported schedule prefix did not "
      << "reproduce " << analysis::flowClauseName(Expected) << ":\n"
      << Found->toString();
}

TEST(FlowMutantsTest, UnlinkWithoutMarkTripsUnlinkedUnmarked) {
  const Scenario S{"rude_unlink",
                   {5},
                   {{{SetOp::Remove, 5}}, {{SetOp::Contains, 5}}},
                   {5},
                   60000};
  expectMutantFlagged<tests::RudeList<TracedPolicy>>(
      S, analysis::FlowClause::UnlinkedUnmarked, "RudeList");
}

TEST(FlowMutantsTest, MarkWithoutUnlinkTripsMarkedLingers) {
  const Scenario S{"forgetful_mark",
                   {5},
                   {{{SetOp::Remove, 5}}, {{SetOp::Contains, 5}}},
                   {5},
                   60000};
  expectMutantFlagged<tests::ForgetfulList<TracedPolicy>>(
      S, analysis::FlowClause::MarkedLingers, "ForgetfulList");
}

TEST(FlowMutantsTest, OutOfIntervalPublishTripsChunkInterval) {
  // 25 belongs to chunk B's keyset [20, +inf) but the seeded bug
  // publishes it into chunk A whose interval is [10, 20). The
  // companion insert of 12 is routed (mis)identically but lands
  // in-interval, pinning the finding to the misrouted key.
  const Scenario S{"sloppy_publish",
                   {},
                   {{{SetOp::Insert, 25}}, {{SetOp::Insert, 12}}},
                   {12, 25},
                   60000};
  expectMutantFlagged<tests::SloppyChunkList<TracedPolicy>>(
      S, analysis::FlowClause::ChunkInterval, "SloppyChunkList");
}

/// Every clause the at-rest pass finds in \p List's end state (where
/// checkInvariants() stops at the first).
template <class ListT>
std::vector<analysis::FlowClause> atRestClauses(const ListT &List) {
  analysis::ChainClauses Clauses(ListT::Flow, analysis::FlowPass::AtRest);
  List.describeChain([&](const analysis::FlowNodeDesc &N) {
    Clauses.visit(N);
    return true;
  });
  Clauses.finish();
  std::vector<analysis::FlowClause> Found;
  for (const analysis::FlowViolation &V : Clauses.takeViolations())
    Found.push_back(V.Clause);
  return Found;
}

TEST(FlowMutantsTest, CheckInvariantsCatchesMarkWithoutUnlink) {
  tests::ForgetfulList<DirectPolicy> List;
  ASSERT_TRUE(List.insert(5));
  ASSERT_TRUE(List.remove(5));
  EXPECT_FALSE(List.checkInvariants());
  EXPECT_EQ(atRestClauses(List),
            std::vector<analysis::FlowClause>{
                analysis::FlowClause::MarkedLingers});
  EXPECT_TRUE(List.snapshot().empty()); // The marked node holds no key.
}

TEST(FlowMutantsTest, CheckInvariantsCatchesOutOfIntervalPublish) {
  tests::SloppyChunkList<DirectPolicy> List;
  ASSERT_TRUE(List.insert(12));
  EXPECT_TRUE(List.checkInvariants());
  ASSERT_TRUE(List.insert(25)); // Lands in chunk A, keyset [10, 20).
  EXPECT_FALSE(List.checkInvariants());
  EXPECT_EQ(atRestClauses(List),
            std::vector<analysis::FlowClause>{
                analysis::FlowClause::ChunkInterval});
}

TEST(FlowMutantsTest, CheckInvariantsPassesUnlinkWithoutMark) {
  tests::RudeList<DirectPolicy> List;
  ASSERT_TRUE(List.insert(5));
  ASSERT_TRUE(List.insert(7));
  ASSERT_TRUE(List.remove(5));
  EXPECT_TRUE(List.checkInvariants());
  EXPECT_TRUE(atRestClauses(List).empty());
  EXPECT_EQ(List.snapshot(), std::vector<SetKey>{7});
}

} // namespace
