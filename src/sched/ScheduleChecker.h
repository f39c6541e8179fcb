//===- sched/ScheduleChecker.h - Definition 1: correct schedules ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides whether an exported schedule is *correct* per Definition 1:
///
///  (1) locally serializable — every operation's projection is a legal
///      execution of the sequential implementation LL (SpecInterpreter);
///  (2) the extension sigma-bar(v) is linearizable — the high-level
///      history, extended with a trailing contains(v) for every key v of
///      the universe (answered from the list state reconstructed from
///      the schedule's writes), linearizes against the set type. This is
///      the condition that rejects "lost update" schedules whose
///      truncated histories look innocent.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_SCHED_SCHEDULECHECKER_H
#define VBL_SCHED_SCHEDULECHECKER_H

#include "sched/Event.h"

#include <string>
#include <vector>

namespace vbl {
namespace sched {

struct CorrectnessResult {
  bool LocallySerializable = true;
  bool Linearizable = true;
  std::string Error;

  bool correct() const { return LocallySerializable && Linearizable; }
};

/// Which sequential specification local serializability is judged
/// against: the pure LL of Algorithm 1, or the §2.3 adjusted variant
/// with logical deletions and delegated unlinks (the Harris-Michael
/// family). The adjusted variant also makes state reconstruction
/// mark-aware.
enum class SpecKind { PureLL, AdjustedLL };

/// Checks Definition 1 on an *exported* schedule (see ScheduleExport).
///
/// \p InitialChain: the (node, key) chain of the initial list from head
/// to tail inclusive — the schedule's writes are replayed over it to
/// reconstruct the final state.
/// \p UniverseKeys: the keys v for which sigma-bar(v) appends a trailing
/// contains(v); callers pass every key their scenario touches (adding
/// untouched keys is sound but pointless).
CorrectnessResult checkScheduleCorrect(
    const Schedule &Exported,
    const std::vector<std::pair<const void *, SetKey>> &InitialChain,
    const std::vector<SetKey> &UniverseKeys,
    SpecKind Spec = SpecKind::PureLL);

/// Reconstructs the set contents implied by the schedule's writes (the
/// paper's state-reconstruction argument before Theorem 3): applies the
/// last write to every node's next field and walks head to tail.
/// Returns false if the resulting graph is not a valid head-to-tail
/// chain (e.g. a lost node made it cyclic or dangling). Bit 0 of a
/// written next word marks its *owner* node as logically deleted (the
/// adjusted spec's lists); marked nodes are traversed but excluded from
/// membership. A plain list never sets that bit: its nodes are aligned
/// and its deletion flags are MemField::Marked writes, which the replay
/// does not read.
bool reconstructFinalState(
    const Schedule &Exported,
    const std::vector<std::pair<const void *, SetKey>> &InitialChain,
    std::vector<SetKey> &KeysOut);

} // namespace sched
} // namespace vbl

#endif // VBL_SCHED_SCHEDULECHECKER_H
