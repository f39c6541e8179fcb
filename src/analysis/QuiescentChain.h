//===- analysis/QuiescentChain.h - Quiescent API from one heap walk ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quiescent half of a chain structure's API, derived from one
/// walk. Every list here keeps its set as a sorted chain between the
/// -inf/+inf sentinels whose unmarked nodes (or unmarked chunks'
/// occupied slots) hold the keys. Such a structure derives from
/// QuiescentChain<Self> and defines
///
///   template <class Visit> void describeChain(Visit &&V) const;
///
/// which calls V(const FlowNodeDesc &) for each node reachable from the
/// head sentinel, head and tail included, until V returns false or the
/// links end. It uses plain relaxed loads, never the Policy, so it can
/// run between explored steps without being one, and it has no hop cap.
/// A structure that also states its traits, as
///
///   static constexpr analysis::FlowTraits Flow{...};
///
/// gets flowView() and so feeds the per-step flow oracle. The LL
/// specification and the race detector's toy list state none: they are
/// run through wrong interleavings on purpose.
///
/// checkInvariants() runs the flow oracle's at-rest clauses
/// (analysis/FlowView.h) over the whole walk, so F3 stops it at a
/// cycle's first non-increasing key. It bumps no counter:
/// analysis.flow_checks keeps counting oracle snapshots only.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_ANALYSIS_QUIESCENTCHAIN_H
#define VBL_ANALYSIS_QUIESCENTCHAIN_H

#include "analysis/FlowView.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace vbl {
namespace analysis {

template <class Derived> class QuiescentChain {
public:
  /// Quiescent-only: the user keys of the unmarked nodes, ascending.
  std::vector<SetKey> snapshot() const {
    std::vector<SetKey> Keys;
    self().describeChain([&](const FlowNodeDesc &N) {
      if (N.Marked || !isUserKey(N.Key))
        return true;
      if (!N.IsChunk) {
        Keys.push_back(N.Key);
        return true;
      }
      // Slots are append-ordered; chunk ranges are disjoint and
      // increasing, so a chunk-local sort yields a global order.
      const size_t Base = Keys.size();
      for (const FlowSlot &Slot : N.Slots)
        Keys.push_back(Slot.Key);
      std::sort(Keys.begin() + static_cast<ptrdiff_t>(Base), Keys.end());
      return true;
    });
    return Keys;
  }

  /// Number of user keys; O(n), quiescent use only.
  size_t sizeSlow() const { return snapshot().size(); }

  /// Quiescent-only: the structure is well formed at rest.
  bool checkInvariants() const {
    ChainClauses Clauses(traits(), FlowPass::AtRest);
    self().describeChain([&](const FlowNodeDesc &N) {
      Clauses.visit(N);
      return Clauses.clean();
    });
    Clauses.finish();
    return Clauses.clean();
  }

  /// Identity of the head sentinel (schedule exporters key off it).
  const void *headNode() const {
    const void *Head = nullptr;
    self().describeChain([&](const FlowNodeDesc &N) {
      Head = N.Node;
      return false;
    });
    return Head;
  }

  /// Quiescent-only: the (node, key) chain from head to tail inclusive
  /// (anchors for chunks, marked nodes included), from which the
  /// schedule checker reconstructs list states.
  std::vector<std::pair<const void *, SetKey>> nodeChain() const {
    std::vector<std::pair<const void *, SetKey>> Chain;
    self().describeChain([&](const FlowNodeDesc &N) {
      Chain.emplace_back(N.Node, N.Key);
      return true;
    });
    return Chain;
  }

  /// The flow oracle's per-step view: the walk, capped at FlowWalkCap.
  FlowView flowView() const
    requires requires { Derived::Flow; }
  {
    FlowView View;
    View.Traits = Derived::Flow;
    View.Describe = [this] {
      std::vector<FlowNodeDesc> Chain;
      self().describeChain([&](const FlowNodeDesc &N) {
        Chain.push_back(N);
        return Chain.size() < FlowWalkCap;
      });
      return Chain;
    };
    return View;
  }

private:
  const Derived &self() const { return static_cast<const Derived &>(*this); }

  static constexpr FlowTraits traits() {
    if constexpr (requires { Derived::Flow; })
      return Derived::Flow;
    else
      return FlowTraits{};
  }
};

} // namespace analysis
} // namespace vbl

#endif // VBL_ANALYSIS_QUIESCENTCHAIN_H
