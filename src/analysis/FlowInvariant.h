//===- analysis/FlowInvariant.h - Plankton-style flow/keyset oracle ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-invariant checker: at every step of every explored
/// interleaving it re-derives node-local flow from the reachable heap
/// snapshot (analysis/FlowView.h) and asserts the keyset/flow clauses
/// the paper's correctness argument rests on — the same invariants the
/// plankton verifier states via `@outflow` / `_flow` (see the
/// OptimisticSet exemplar in SNIPPETS.md and DESIGN.md "Flow/keyset
/// invariant oracle").
///
/// Clause catalogue (F-numbers referenced by tests and DESIGN.md):
///
///   F1 Shape            walk from head reaches a MaxSentinel tail
///                       (within FlowWalkCap nodes in the per-step
///                       view, so a cycle or lost tail ends the walk
///                       short of the tail).
///   F2 Sentinels        head key == MinSentinel, tail key ==
///                       MaxSentinel, both unmarked; chunk sentinels
///                       publish no slots.
///   F3 Sorted           keys (anchors for chunks) strictly increase
///                       over the *whole* reachable chain, marked nodes
///                       included — every backend here inserts only
///                       between verified-adjacent nodes, so a marked
///                       node never breaks the order.
///   F4 ChunkInterval    every occupied slot's key lies in
///                       [Anchor, NextAnchor), its index is inside the
///                       chunk, and occupied keys are distinct. The
///                       Occ-vs-FirstClean containment (Index <
///                       FirstClean <= Capacity) is checked at episode
///                       end only: storeSlot publishes the Occ bit and
///                       advances FirstClean in separate steps.
///   F5 UniqueFlow       each user key flows to AT MOST one unmarked
///                       reachable node/slot per step. ("Exactly one"
///                       cannot hold per step — a key's flow is legally
///                       empty while absent, and transiently empty
///                       during a chunk freeze.)
///   F6 UnlinkedUnmarked a tracked node that leaves the reachable set
///                       must have been marked when last observed
///                       reachable (unlink-before-mark is the classic
///                       lost-update bug). Skipped for markless
///                       backends (HasMark == false).
///   F7 MarkedLingers    at episode end no reachable node is still
///                       marked — every logical delete completed its
///                       unlink. Skipped when MarkedMayLinger
///                       (Harris-Michael delegates unlinks to later
///                       ops).
///
/// F1-F4 and F7 judge one snapshot on their own and live in
/// analysis/FlowView.h, with one more clause for the end of an
/// episode: no node is locked. Every chain structure's
/// checkInvariants() runs that same at-rest set over its uncapped
/// quiescent walk. F5 and F6 stay here: F6 compares consecutive
/// snapshots, and at rest F5 follows from F3 and F4.
///
/// Together F5 + F6 + F7 are the step-indexed decomposition of the
/// paper's "mark == true <=> flow == emptyset": the biconditional holds
/// at operation boundaries, and these clauses pin down exactly which
/// transient states between them are legal.
///
/// Violations are reported as FlowReport, mirroring RaceReport: the
/// offending node, the clause, a human-readable detail, and the
/// reproducing schedule prefix (the Choices consumed so far, replayable
/// via InterleavingExplorer::run).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_ANALYSIS_FLOWINVARIANT_H
#define VBL_ANALYSIS_FLOWINVARIANT_H

#include "analysis/FlowView.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace vbl {
namespace analysis {

const char *flowClauseName(FlowClause Clause);

/// One flow-invariant violation in an explored episode, shaped after
/// RaceReport: enough to print, and enough to reproduce (SchedulePrefix
/// replays through InterleavingExplorer::run up to the step that
/// tripped the clause).
struct FlowReport : FlowViolation {
  /// Scheduler step index at which the violation was observed (0 =
  /// the pre-step baseline snapshot).
  size_t Step = 0;
  /// The schedule choices consumed up to and including this step;
  /// feeding them to InterleavingExplorer::run reproduces the state.
  std::vector<unsigned> SchedulePrefix;

  std::string toString() const;
};

/// Recomputes flow from the FlowView snapshot after every scheduler
/// step and records clause violations. One checker per episode; a
/// default (falsy) FlowView makes every hook a no-op.
///
/// Usage (InterleavingExplorer::run):
///   FlowChecker Flow(Meta.Flow);
///   Flow.onStep(Choices);          // baseline, before the first step
///   ... after each Sched.step(): Flow.onStep(Choices);
///   Flow.onEpisodeEnd(Choices);    // at-rest clauses
///
/// Each (clause, node) pair is reported once per episode: a violated
/// invariant usually stays violated for the rest of the episode and
/// one report per cause keeps the output readable.
class FlowChecker {
public:
  explicit FlowChecker(FlowView View) : View(std::move(View)) {}

  /// Snapshot + check all per-step clauses. \p Choices is the schedule
  /// prefix so far (copied into any report produced).
  void onStep(const std::vector<unsigned> &Choices);

  /// Check the final snapshot with the at-rest clause set (per-step
  /// clauses plus F7, chunk Occ/FirstClean containment and no lock
  /// held): the one checkInvariants() runs.
  void onEpisodeEnd(const std::vector<unsigned> &Choices);

  std::vector<FlowReport> takeReports() { return std::move(Reports); }

private:
  void check(FlowPass Pass, const std::vector<unsigned> &Choices);
  void checkFlow(const std::vector<FlowNodeDesc> &Chain,
                 const std::vector<unsigned> &Choices);
  void report(FlowViolation V, const std::vector<unsigned> &Choices);

  FlowView View;
  std::vector<FlowReport> Reports;
  /// Dedup: report each (clause, node) once per episode.
  std::set<std::pair<FlowClause, const void *>> Reported;
  /// F6 state: last observed (key, mark) of every node seen reachable.
  /// An entry whose node disappears is the unlink we must audit;
  /// entries are erased after auditing so reinsertion of the same
  /// address (impossible under LeakyDomain, harmless otherwise) starts
  /// fresh.
  std::map<const void *, std::pair<SetKey, bool>> LastMarked;
  /// Step counter: 0 is the pre-step baseline snapshot.
  size_t Step = 0;
  bool SawBaseline = false;
};

} // namespace analysis
} // namespace vbl

#endif // VBL_ANALYSIS_FLOWINVARIANT_H
