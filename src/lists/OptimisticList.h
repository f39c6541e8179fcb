//===- lists/OptimisticList.h - Optimistic locking with re-traversal -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optimistic synchronization (Herlihy & Shavit §9.6): traverse without
/// locks, lock the (prev, curr) window, then *validate by re-traversing
/// from the head* that prev is still reachable and still points at curr.
/// The historical stepping stone between lock-coupling and the Lazy
/// list: it removes lock traffic from traversals but pays a full second
/// traversal per update, and contains() must lock and validate too
/// (there is no deletion mark to make it wait-free).
///
/// Unlinked nodes may still be visited by concurrent lock-free
/// traversals, so this list needs a reclamation domain.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_OPTIMISTICLIST_H
#define VBL_LISTS_OPTIMISTICLIST_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "reclaim/EpochDomain.h"
#include "reclaim/NodePool.h"
#include "stats/Stats.h"
#include "support/Compiler.h"
#include "sync/Policy.h"
#include "sync/SpinLocks.h"

#include <atomic>
#include <utility>
#include <vector>

namespace vbl {

/// PolicyT comes last (unlike the other lists) so that the historical
/// OptimisticList<Reclaim, Lock> spelling keeps compiling.
template <class ReclaimT = reclaim::EpochDomain, class LockT = TasLock,
          class PolicyT = DirectPolicy>
class OptimisticList : public analysis::QuiescentChain<
                           OptimisticList<ReclaimT, LockT, PolicyT>> {
public:
  using Reclaim = ReclaimT;
  using Policy = PolicyT;

  /// HasMark is false: removal unlinks a live node under locks (no
  /// logical-deletion flag), so the mark-related clauses do not apply
  /// and unlinked nodes must not be tracked across steps.
  static constexpr analysis::FlowTraits Flow{.HasMark = false};

  OptimisticList() {
    Tail = reclaim::poolCreate<Node, Policy>(MaxSentinel);
    Head = reclaim::poolCreate<Node, Policy>(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~OptimisticList() {
    Node *Curr = Head;
    while (Curr) {
      Node *Next = Curr->Next.load(std::memory_order_relaxed);
      reclaim::poolDestroy<Policy>(Curr);
      Curr = Next;
    }
  }

  OptimisticList(const OptimisticList &) = delete;
  OptimisticList &operator=(const OptimisticList &) = delete;

  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    for (;;) {
      auto [Prev, Curr] = traverse(Key);
      Policy::lockAcquire(Prev->NodeLock, Prev);
      Policy::lockAcquire(Curr->NodeLock, Curr);
      if (!validate(Prev, Curr)) {
        Policy::lockRelease(Curr->NodeLock, Curr);
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      const bool Absent = Curr->Val != Key;
      if (Absent) {
        Node *NewNode = reclaim::poolCreate<Node, Policy>(Key);
        Policy::onNewNode(NewNode, Key);
        NewNode->Next.store(Curr, std::memory_order_relaxed);
        Policy::write(Prev->Next, NewNode, std::memory_order_release, Prev,
                      MemField::Next);
      }
      Policy::lockRelease(Curr->NodeLock, Curr);
      Policy::lockRelease(Prev->NodeLock, Prev);
      return Absent;
    }
  }

  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    for (;;) {
      auto [Prev, Curr] = traverse(Key);
      Policy::lockAcquire(Prev->NodeLock, Prev);
      Policy::lockAcquire(Curr->NodeLock, Curr);
      if (!validate(Prev, Curr)) {
        Policy::lockRelease(Curr->NodeLock, Curr);
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      const bool Present = Curr->Val == Key;
      if (Present)
        Policy::write(Prev->Next,
                      Policy::read(Curr->Next, std::memory_order_relaxed,
                                   Curr, MemField::Next),
                      std::memory_order_release, Prev, MemField::Next);
      Policy::lockRelease(Curr->NodeLock, Curr);
      Policy::lockRelease(Prev->NodeLock, Prev);
      if (Present)
        reclaim::poolRetire<Policy>(Domain, Curr);
      return Present;
    }
  }

  /// Membership test; locks and validates like the updates do (the
  /// optimistic list has no wait-free contains — one reason the Lazy
  /// list superseded it).
  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    for (;;) {
      auto [Prev, Curr] = traverse(Key);
      Policy::lockAcquire(Prev->NodeLock, Prev);
      Policy::lockAcquire(Curr->NodeLock, Curr);
      if (!validate(Prev, Curr)) {
        Policy::lockRelease(Curr->NodeLock, Curr);
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      const bool Present = Curr->Val == Key;
      Policy::lockRelease(Curr->NodeLock, Curr);
      Policy::lockRelease(Prev->NodeLock, Prev);
      return Present;
    }
  }

  /// Lock-free range scan. There is no deletion mark: a node reached by
  /// following live links was present at the read that reached it, which
  /// is the per-key linearization point the scan checker relies on.
  /// Unlinked nodes stay structurally intact until the domain reclaims
  /// them, so the walk never locks or validates.
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) const {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    typename Reclaim::Guard G(Domain);
    const size_t Entry = Out.size();
    walk([&](SetKey Val) {
      if (Val > Hi)
        return true; // The tail sentinel stops every walk.
      if (Val >= Lo)
        Out.push_back(Val);
      return false;
    });
    return Out.size() - Entry;
  }

  Reclaim &reclaimDomain() { return Domain; }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    for (const Node *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = Curr->Val;
      D.Locked = Curr->NodeLock.isLocked();
      if (!V(D))
        return;
    }
  }

private:
  /// One node per cache line.
  struct alignas(CacheLineBytes) Node {
    explicit Node(SetKey Val) : Val(Val) {}

    const SetKey Val;
    std::atomic<Node *> Next{nullptr};
    LockT NodeLock;
  };

  /// The update traversal: (prev, curr) with prev.val < Key <= curr.val.
  std::pair<Node *, Node *> traverse(SetKey Key) const {
    return walk([Key](SetKey Val) { return Val >= Key; });
  }

  /// The list's one hop loop: follows next pointers from the head,
  /// reading each node's key, until \p Stop accepts one (Stop sees every
  /// key in list order and may collect it). Returns (prev, curr) for
  /// that node. No locks, no validation: those come after, under locks.
  template <class StopFn> std::pair<Node *, Node *> walk(StopFn Stop) const {
    Node *Prev = Head;
    Node *Curr = Policy::read(Prev->Next, std::memory_order_acquire, Prev,
                              MemField::Next);
    uint64_t Hops = 0; // One per next pointer followed; one stats call.
    for (;;) {
      // Pull the successor's line while this node's key is compared
      // (direct mode only; traced runs take no invisible shared reads).
      if constexpr (!Policy::Traced)
        VBL_PREFETCH(Curr->Next.load(std::memory_order_relaxed));
      ++Hops;
      if (Stop(Policy::readValue(Curr->Val, Curr))) {
        stats::noteTraversal(Hops);
        return {Prev, Curr};
      }
      Prev = Curr;
      Curr = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                          MemField::Next);
    }
  }

  /// Re-traverses from the head to prove (prev, curr) is still a live
  /// adjacent window. Runs under both locks, so a positive answer stays
  /// true until they are released. Every caller restarts on failure
  /// (and counts the restart via Policy::onRestart at the restart
  /// site); only the abort itself is counted here.
  bool validate(const Node *Prev, const Node *Curr) const {
    const Node *Probe = Head;
    while (Policy::readValueCheck(Probe->Val, Probe) <= Prev->Val) {
      if (Probe == Prev) {
        if (Policy::readCheck(Prev->Next, std::memory_order_acquire, Prev,
                              MemField::Next) == Curr)
          return true;
        break;
      }
      Probe = Policy::readCheck(Probe->Next, std::memory_order_acquire,
                                Probe, MemField::Next);
    }
    stats::bump(stats::Counter::ListValidationAborts);
    return false;
  }

  Node *Head;
  Node *Tail;
  mutable Reclaim Domain;
};

} // namespace vbl

#endif // VBL_LISTS_OPTIMISTICLIST_H
