//===- analysis/FlowInvariant.cpp - Flow/keyset oracle implementation ----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "analysis/FlowInvariant.h"

#include "stats/Stats.h"

#include <sstream>

namespace vbl {
namespace analysis {

const char *flowClauseName(FlowClause Clause) {
  switch (Clause) {
  case FlowClause::Shape:
    return "F1.Shape";
  case FlowClause::Sentinels:
    return "F2.Sentinels";
  case FlowClause::Sorted:
    return "F3.Sorted";
  case FlowClause::ChunkInterval:
    return "F4.ChunkInterval";
  case FlowClause::UniqueFlow:
    return "F5.UniqueFlow";
  case FlowClause::UnlinkedUnmarked:
    return "F6.UnlinkedUnmarked";
  case FlowClause::MarkedLingers:
    return "F7.MarkedLingers";
  case FlowClause::LockHeld:
    return "AtRest.LockHeld";
  }
  return "F?.Unknown";
}

std::string FlowReport::toString() const {
  std::ostringstream Out;
  Out << "flow invariant " << flowClauseName(Clause) << " violated at step "
      << Step << " on node " << Node << " (key " << Key << "):\n  "
      << Detail << "\n  reproducing schedule prefix (thread per step): [";
  for (size_t I = 0; I != SchedulePrefix.size(); ++I)
    Out << (I ? " " : "") << SchedulePrefix[I];
  Out << "]";
  return Out.str();
}

void FlowChecker::report(FlowViolation V,
                         const std::vector<unsigned> &Choices) {
  if (Reported.insert({V.Clause, V.Node}).second)
    Reports.push_back({std::move(V), Step, Choices});
}

void FlowChecker::onStep(const std::vector<unsigned> &Choices) {
  if (!View)
    return;
  // The first call is the pre-step baseline (step 0); later calls land
  // after each Sched.step, so the step index is the prefix length.
  if (SawBaseline)
    Step = Choices.size();
  SawBaseline = true;
  check(FlowPass::Step, Choices);
}

void FlowChecker::onEpisodeEnd(const std::vector<unsigned> &Choices) {
  if (!View)
    return;
  // Every operation has returned: the final snapshot must be well
  // formed at rest, by the same clauses as checkInvariants().
  Step = Choices.size();
  check(FlowPass::AtRest, Choices);
}

void FlowChecker::check(FlowPass Pass, const std::vector<unsigned> &Choices) {
  stats::bump(stats::Counter::AnalysisFlowChecks);
  const std::vector<FlowNodeDesc> Chain = View.Describe();
  ChainClauses Clauses(View.Traits, Pass);
  for (const FlowNodeDesc &N : Chain)
    Clauses.visit(N);
  const bool Whole = Clauses.finish();
  for (FlowViolation &V : Clauses.takeViolations())
    report(std::move(V), Choices);
  if (Whole) // F5 and F6 assume a well-formed head..tail chain.
    checkFlow(Chain, Choices);
}

void FlowChecker::checkFlow(const std::vector<FlowNodeDesc> &Chain,
                            const std::vector<unsigned> &Choices) {
  // F5 UniqueFlow. Flow of a user key = the set of unmarked reachable
  // nodes/slots holding it; the per-step clause is |flow(k)| <= 1.
  std::map<SetKey, const void *> FlowTarget;
  auto capture = [&](const FlowNodeDesc &N, SetKey Key) {
    if (!isUserKey(Key))
      return;
    auto [It, Fresh] = FlowTarget.insert({Key, N.Node});
    if (!Fresh && It->second != N.Node) {
      std::ostringstream D;
      D << "key " << Key << " flows to two unmarked nodes (" << It->second
        << " and " << N.Node << ")";
      report({FlowClause::UniqueFlow, N.Node, Key, D.str()}, Choices);
    }
  };
  for (const FlowNodeDesc &N : Chain) {
    if (N.Marked)
      continue;
    if (N.IsChunk)
      for (const FlowSlot &Slot : N.Slots)
        capture(N, Slot.Key);
    else
      capture(N, N.Key);
  }

  // F6 UnlinkedUnmarked: audit tracked nodes that left the reachable
  // set, then refresh the tracking map from this snapshot. Markless
  // backends (Optimistic, hand-over-hand) unlink live nodes by design
  // — and may free them immediately — so they are never tracked.
  if (!View.Traits.HasMark)
    return;
  std::set<const void *> Reachable;
  for (const FlowNodeDesc &N : Chain)
    Reachable.insert(N.Node);
  for (auto It = LastMarked.begin(); It != LastMarked.end();) {
    if (Reachable.count(It->first)) {
      ++It;
      continue;
    }
    if (!It->second.second)
      report({FlowClause::UnlinkedUnmarked, It->first, It->second.first,
              "node became unreachable while still unmarked "
              "(unlink-before-mark)"},
             Choices);
    It = LastMarked.erase(It);
  }
  for (const FlowNodeDesc &N : Chain)
    LastMarked[N.Node] = {N.Key, N.Marked};
}

} // namespace analysis
} // namespace vbl
