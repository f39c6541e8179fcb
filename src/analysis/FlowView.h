//===- analysis/FlowView.h - Heap snapshots and their flow clauses -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bridge between a list backend and the flow-invariant checker
/// (analysis/FlowInvariant.h), and the oracle's snapshot clauses.
///
/// A backend describes its heap one node (or chunk) at a time as
/// FlowNodeDesc records and states the FlowTraits that pick the clause
/// set for its algorithm. Chain structures derive their `flowView()`
/// from their one quiescent walk (analysis/QuiescentChain.h): a FlowView
/// whose Describe closure runs that walk, capped at FlowWalkCap nodes.
///
/// ChainClauses holds the clauses that judge one snapshot on its own:
/// F1-F4 and F7 of the catalogue in analysis/FlowInvariant.h, plus "no
/// node is locked" at rest. FlowChecker runs them on every explored step
/// and at episode end; every chain structure's checkInvariants() runs
/// them over its uncapped walk. Header-only, so code built from the list
/// headers without the analysis library (perfbench/) runs them too.
///
/// The Describe closure runs *between* scheduler steps, while every
/// worker thread is parked at a policy yield point, so plain relaxed
/// loads are race-free and — critically — scheduler-invisible: the
/// snapshot must not perturb the interleaving being explored. Backends
/// therefore describe themselves with raw `.load(std::memory_order_
/// relaxed)` on their atomics, never through their Policy.
///
/// Memory-safety contract: the checker may follow pointers it read one
/// step earlier only through descriptions it cached while the node was
/// reachable; it never dereferences an unreachable node. Flow-checked
/// episodes still run under reclaim::LeakyDomain so that even the
/// Describe walk racing an unlink (impossible under the step scheduler,
/// but cheap to be safe about) cannot touch freed memory.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_ANALYSIS_FLOWVIEW_H
#define VBL_ANALYSIS_FLOWVIEW_H

#include "core/SetConfig.h"
#include "support/Compiler.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace vbl {
namespace analysis {

/// Bound on the per-step Describe walk: a corrupted chain (cycle, lost
/// tail) must terminate the snapshot, not the test binary. Far above
/// any scenario's node count; hitting it reads as a Shape violation.
/// The quiescent walk has no cap; checkInvariants() stops at a cycle's
/// first non-increasing key (F3).
inline constexpr size_t FlowWalkCap = size_t(1) << 12;

/// One occupied slot of a chunk node: its index in the key array and
/// the key it publishes.
struct FlowSlot {
  uint32_t Index = 0;
  SetKey Key = 0;
};

/// Snapshot of one reachable node. For flat lists only Node, Key,
/// Marked and Locked are meaningful; chunked backends set IsChunk and
/// fill the slot and layout fields (Key then holds the chunk's
/// immutable min-key anchor).
struct FlowNodeDesc {
  const void *Node = nullptr;
  SetKey Key = 0;
  bool Marked = false;
  /// The node's lock is held (lock-free nodes never set it).
  bool Locked = false;
  bool IsChunk = false;
  /// First never-written slot index (chunked backends only).
  uint32_t FirstClean = 0;
  /// Slots per chunk (chunked backends only).
  uint32_t Capacity = 0;
  /// Occupied slots, in index order (chunked backends only).
  std::vector<FlowSlot> Slots;
};

/// How an algorithm's heap is read: which clauses apply to it.
struct FlowTraits {
  /// The algorithm carries a logical-deletion mark (clause F6/F7
  /// apply). False for Optimistic and hand-over-hand lists, whose
  /// removals unlink without marking by design — and whose unlinked
  /// nodes must consequently never be tracked (hand-over-hand frees
  /// them immediately).
  bool HasMark = true;

  /// Marked nodes may legally stay reachable after the removing
  /// operation returns (Harris-Michael delegated unlinks), so the
  /// episode-end "no reachable marked node" clause is skipped.
  bool MarkedMayLinger = false;

  /// Nodes are sorted chunks: keyset-interval clauses (F4) apply and
  /// Key is the chunk anchor.
  bool IsChunked = false;
};

/// A backend's self-description for the flow checker. Default-
/// constructed (no Describe closure) means "not flow-checkable" and
/// disables the checker for the episode.
struct FlowView {
  /// Walks head..tail and describes each reachable node. Must use
  /// scheduler-invisible relaxed loads and stop at FlowWalkCap nodes.
  std::function<std::vector<FlowNodeDesc>()> Describe;
  FlowTraits Traits;

  explicit operator bool() const { return static_cast<bool>(Describe); }
};

/// Which invariant clause a violation breaks; values mirror the
/// F-numbers of analysis/FlowInvariant.h.
enum class FlowClause {
  Shape,
  Sentinels,
  Sorted,
  ChunkInterval,
  UniqueFlow,
  UnlinkedUnmarked,
  MarkedLingers,
  /// At rest: a node's lock is still held.
  LockHeld,
};

/// Step: between two explored steps, operations in flight. AtRest:
/// every operation has returned (an explored episode's end, or a
/// quiescent structure), so F7, FirstClean containment and "no lock
/// held" apply too.
enum class FlowPass { Step, AtRest };

/// One failed clause instance: the clause, the offending node (null for
/// the chain as a whole), the key (or anchor, or slot key) it failed
/// for, and a human-readable detail.
struct FlowViolation {
  FlowClause Clause = FlowClause::Shape;
  const void *Node = nullptr;
  SetKey Key = 0;
  std::string Detail;
};

/// Streaming check: feed the walk's nodes to visit() head first, then
/// call finish(). A node's F4 interval needs its successor's anchor, so
/// it is judged when the successor arrives.
class ChainClauses {
public:
  ChainClauses(FlowTraits Traits, FlowPass Pass)
      : Traits(Traits), Pass(Pass) {}

  void visit(const FlowNodeDesc &N) {
    if (Count == 0) {
      if (N.Key != MinSentinel)
        fail(FlowClause::Sentinels, N, N.Key, "head key is not MinSentinel");
      checkSentinel(N, "head");
    } else {
      // F3 Sorted, marked nodes included: inserts link only between
      // verified-adjacent nodes. A cycle breaks it at its first
      // repeated node, which is what bounds an uncapped walk.
      if (Prev.Key >= N.Key)
        fail(FlowClause::Sorted, N, N.Key,
             Traits.IsChunked ? "anchor " : "key ", N.Key,
             " does not exceed predecessor's ", Prev.Key);
      checkInterval(Prev, N.Key);
    }
    if (Pass == FlowPass::AtRest)
      checkAtRest(N);
    Prev = N;
    ++Count;
  }

  /// F1 Shape, then the tail's clauses. False when the walk did not end
  /// at the tail sentinel.
  bool finish() {
    if (Count == 0) {
      Violations.push_back(
          {FlowClause::Shape, nullptr, 0, "head walk found no nodes"});
      return false;
    }
    if (Prev.Key != MaxSentinel) {
      fail(FlowClause::Shape, Prev, Prev.Key, "walk ended at key ", Prev.Key,
           " after ", Count,
           " nodes, short of the tail sentinel (lost tail, or a cycle cut "
           "off by the flow view's ",
           FlowWalkCap, "-node cap)");
      return false;
    }
    checkSentinel(Prev, "tail");
    checkInterval(Prev, MaxSentinel);
    return true;
  }

  bool clean() const { return Violations.empty(); }
  std::vector<FlowViolation> takeViolations() {
    return std::move(Violations);
  }

private:
  /// Records a violation whose detail is \p Parts (strings and numbers)
  /// run together. Out of line and taking its parts by value, so the
  /// per-node checks build no strings until a clause fails.
  template <class... Parts>
  VBL_NOINLINE void fail(FlowClause Clause, const FlowNodeDesc &N,
                         SetKey Key, Parts... P) {
    std::string Detail;
    ((Detail += text(P)), ...);
    Violations.push_back({Clause, N.Node, Key, std::move(Detail)});
  }
  static std::string text(const char *S) { return S; }
  template <class T> static std::string text(T Number) {
    return std::to_string(Number);
  }

  /// F2 Sentinels: unmarked, and a sentinel chunk publishes no slots.
  void checkSentinel(const FlowNodeDesc &N, const char *Which) {
    if (N.Marked)
      fail(FlowClause::Sentinels, N, N.Key, Which, " is marked");
    if (Traits.IsChunked && !N.Slots.empty())
      fail(FlowClause::Sentinels, N, N.Key, Which,
           " sentinel chunk publishes occupied slots");
  }

  /// F4 ChunkInterval, the part that holds in every state: each
  /// occupied slot is inside the chunk, its key in [Anchor, NextAnchor),
  /// and occupied keys are distinct.
  void checkInterval(const FlowNodeDesc &N, SetKey NextAnchor) {
    for (size_t I = 0; I != N.Slots.size(); ++I) {
      const FlowSlot &Slot = N.Slots[I];
      if (Slot.Index >= N.Capacity)
        fail(FlowClause::ChunkInterval, N, Slot.Key, "occupied slot index ",
             Slot.Index, " outside chunk capacity ", N.Capacity);
      if (Slot.Key < N.Key || Slot.Key >= NextAnchor)
        fail(FlowClause::ChunkInterval, N, Slot.Key, "slot ", Slot.Index,
             " key ", Slot.Key, " outside chunk keyset [", N.Key, ", ",
             NextAnchor, ")");
      for (size_t J = 0; J != I; ++J)
        if (N.Slots[J].Key == Slot.Key)
          fail(FlowClause::ChunkInterval, N, Slot.Key, "key ", Slot.Key,
               " occupies two slots of one chunk");
    }
  }

  void checkAtRest(const FlowNodeDesc &N) {
    // F7 MarkedLingers: every logical delete completed its unlink (mark
    // <=> no flow holds exactly at rest), except where later traversals
    // snip marked nodes (Harris-Michael).
    if (N.Marked && Traits.HasMark && !Traits.MarkedMayLinger)
      fail(FlowClause::MarkedLingers, N, N.Key,
           "node still marked and reachable at rest");
    // F4, at-rest half: Occ confined below FirstClean. storeSlot
    // publishes the Occ bit before it advances FirstClean.
    if (N.IsChunk && N.FirstClean > N.Capacity)
      fail(FlowClause::ChunkInterval, N, N.Key, "FirstClean ", N.FirstClean,
           " exceeds capacity ", N.Capacity);
    for (const FlowSlot &Slot : N.Slots)
      if (Slot.Index >= N.FirstClean)
        fail(FlowClause::ChunkInterval, N, Slot.Key, "occupied slot ",
             Slot.Index, " at or above FirstClean ", N.FirstClean, " at rest");
    if (N.Locked)
      fail(FlowClause::LockHeld, N, N.Key, "node locked at rest");
  }

  FlowTraits Traits;
  FlowPass Pass;
  /// The last node visited (copied: walks reuse one description).
  FlowNodeDesc Prev;
  size_t Count = 0;
  std::vector<FlowViolation> Violations;
};

} // namespace analysis
} // namespace vbl

#endif // VBL_ANALYSIS_FLOWVIEW_H
