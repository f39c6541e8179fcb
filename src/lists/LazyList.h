//===- lists/LazyList.h - The Lazy Linked List (Heller et al.) -----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Lazy Linked List (Heller et al., OPODIS 2006; Herlihy & Shavit
/// §9.7) — the paper's primary comparator. Updates traverse wait-free,
/// then lock the (prev, curr) window and validate *under* the locks that
/// neither node is marked and prev still points at curr; removal marks
/// before unlinking so contains() can stay wait-free.
///
/// The paper's §2.3 suboptimality argument lives in the code shape: the
/// presence check of insert/remove happens *after* the locks are taken,
/// so an update that will not modify the list still contends on
/// metadata. Fig. 2's schedule — insert(1) completing while insert(2)
/// holds X1's lock — is therefore rejected (insert(1) blocks), which the
/// schedule tests demonstrate via the traced policy.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_LAZYLIST_H
#define VBL_LISTS_LAZYLIST_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "reclaim/EpochDomain.h"
#include "reclaim/NodePool.h"
#include "reclaim/VbrDomain.h"
#include "support/Compiler.h"
#include "sync/Policy.h"
#include "sync/SpinLocks.h"

#include <atomic>
#include <tuple>
#include <type_traits>
#include <vector>

namespace vbl {

template <class ReclaimT = reclaim::EpochDomain,
          class PolicyT = DirectPolicy, class LockT = TasLock>
class LazyList
    : public analysis::QuiescentChain<LazyList<ReclaimT, PolicyT, LockT>> {
  /// Version-based reclamation: nodes are revived in place, keys become
  /// atomic, every traversal hop re-validates the node's birth epoch,
  /// and the second window lock degrades to a try-lock (a recycled curr
  /// can reappear *before* prev in the list, so blocking on it in
  /// traversal order could deadlock).
  static constexpr bool Versioned = reclaim::IsVersionedDomain<ReclaimT>;

public:
  using Reclaim = ReclaimT;
  using Policy = PolicyT;

  /// The Marked flag; remove() unlinks under its locks before returning.
  static constexpr analysis::FlowTraits Flow{};

  LazyList() {
    // Under VBR sentinels carry epoch headers too (traversals birth-check
    // every node); a fresh domain's free lists are empty, so both are
    // first incarnations with birth 0.
    Tail = makeNode(MaxSentinel);
    Head = makeNode(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~LazyList() {
    Node *Curr = Head;
    while (Curr) {
      Node *Next = Curr->Next.load(std::memory_order_relaxed);
      reclaim::domainDispose<Policy>(Domain, Curr);
      Curr = Next;
    }
  }

  LazyList(const LazyList &) = delete;
  LazyList &operator=(const LazyList &) = delete;

  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    for (;;) {
      auto [Prev, Curr, Val] = traverse(Key, G);
      // Locks are taken BEFORE the presence check: this is the
      // suboptimality of §2.3 — a failing insert still serializes on
      // the window locks.
      Policy::lockAcquire(Prev->NodeLock, Prev);
      if (!lockCurr(Curr)) {
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      if (!validate(Prev, Curr, G)) {
        Policy::lockRelease(Curr->NodeLock, Curr);
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      const bool Absent = Val != Key;
      if (Absent) {
        Node *NewNode = makeNode(Key);
        if constexpr (Versioned)
          // A straggling reader of the revived block pairs its acquire
          // with this release (see makeNode).
          Policy::write(NewNode->Next, Curr, std::memory_order_release,
                        NewNode, MemField::Next);
        else
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
      auto [Prev, Curr, Val] = traverse(Key, G);
      Policy::lockAcquire(Prev->NodeLock, Prev);
      if (!lockCurr(Curr)) {
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      if (!validate(Prev, Curr, G)) {
        Policy::lockRelease(Curr->NodeLock, Curr);
        Policy::lockRelease(Prev->NodeLock, Prev);
        Policy::onRestart();
        continue;
      }
      const bool Present = Val == Key;
      if (Present) {
        // Logical deletion first so wait-free contains() never reports
        // a key whose removal already linearized.
        Policy::write(Curr->Marked, true, std::memory_order_release, Curr,
                      MemField::Marked);
        Policy::write(Prev->Next,
                      Policy::read(Curr->Next, std::memory_order_acquire,
                                   Curr, MemField::Next),
                      std::memory_order_release, Prev, MemField::Next);
      }
      Policy::lockRelease(Curr->NodeLock, Curr);
      Policy::lockRelease(Prev->NodeLock, Prev);
      if (Present)
        reclaim::domainRetire<Policy>(Domain, Curr);
      return Present;
    }
  }

  /// Wait-free contains: traverse by value, then consult the mark.
  /// Under VBR the walk is birth-checked per hop and restarts from the
  /// head on a reject (lock-free, not wait-free; rejects only happen
  /// when another thread completed a reuse).
  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    if constexpr (Versioned) {
      for (;;) {
        const Node *Curr = Policy::read(Head->Next,
                                        std::memory_order_acquire, Head,
                                        MemField::Next);
        uint64_t Hops = 0;
        for (;;) {
          const SetKey Val = readVal(Curr);
          const Node *Succ = Policy::read(Curr->Next,
                                          std::memory_order_acquire, Curr,
                                          MemField::Next);
          if (!Domain.validAt(Curr, G.version()))
            break; // Recycled under us: restart.
          if (Val >= Key) {
            const bool Marked = Policy::read(Curr->Marked,
                                             std::memory_order_acquire,
                                             Curr, MemField::Marked);
            // Certify the mark read too: it happened after the check
            // above and the block may have been recycled in between.
            if (!Domain.validAt(Curr, G.version()))
              break;
            stats::noteTraversal(Hops);
            return Val == Key && !Marked;
          }
          Curr = Succ;
          ++Hops;
        }
        stats::noteTraversal(Hops);
        G.refresh();
        Policy::onRestart();
      }
    } else {
      const Node *Curr = Head;
      SetKey Val = Policy::readValue(Curr->Val, Curr);
      uint64_t Hops = 0; // Accumulated locally; one stats call at the end.
      while (Val < Key) {
        Curr = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                            MemField::Next);
        // Pull the successor's line while this node's key is compared
        // (direct mode only; traced runs take no invisible shared reads).
        if constexpr (!Policy::Traced)
          VBL_PREFETCH(Curr->Next.load(std::memory_order_relaxed));
        Val = Policy::readValue(Curr->Val, Curr);
        ++Hops;
      }
      stats::noteTraversal(Hops);
      return Val == Key && !Policy::read(Curr->Marked,
                                         std::memory_order_acquire, Curr,
                                         MemField::Marked);
    }
  }

  /// Wait-free range scan: the contains() walk extended across
  /// [\p Lo, \p Hi], consulting each in-range node's mark exactly as
  /// contains does — a key is collected iff a contains(key) linearized
  /// at that hop would return true, so the scan is per-key linearizable
  /// over its interval. Under VBR a birth reject discards the attempt
  /// and restarts the collect from the head.
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    typename Reclaim::Guard G(Domain);
    const size_t Entry = Out.size();
    if constexpr (Versioned) {
      for (;;) {
        Out.resize(Entry); // Discard any partial attempt.
        const Node *Curr = Policy::read(Head->Next,
                                        std::memory_order_acquire, Head,
                                        MemField::Next);
        uint64_t Hops = 0;
        bool Restart = false;
        for (;;) {
          const SetKey Val = readVal(Curr);
          const Node *Succ = Policy::read(Curr->Next,
                                          std::memory_order_acquire, Curr,
                                          MemField::Next);
          if (!Domain.validAt(Curr, G.version())) {
            Restart = true; // Recycled under us: redo the collect.
            break;
          }
          if (Val > Hi)
            break;
          if (Val >= Lo) {
            const bool Marked = Policy::read(Curr->Marked,
                                             std::memory_order_acquire,
                                             Curr, MemField::Marked);
            // Certify the mark read too (see contains()).
            if (!Domain.validAt(Curr, G.version())) {
              Restart = true;
              break;
            }
            if (!Marked)
              Out.push_back(Val);
          }
          Curr = Succ;
          ++Hops;
        }
        stats::noteTraversal(Hops);
        if (!Restart)
          return Out.size() - Entry;
        G.refresh();
        Policy::onRestart();
      }
    } else {
      const Node *Curr = Head;
      SetKey Val = Policy::readValue(Curr->Val, Curr);
      uint64_t Hops = 0;
      while (Val <= Hi) {
        if (Val >= Lo &&
            !Policy::read(Curr->Marked, std::memory_order_acquire, Curr,
                          MemField::Marked))
          Out.push_back(Val);
        Curr = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                            MemField::Next);
        if constexpr (!Policy::Traced)
          VBL_PREFETCH(Curr->Next.load(std::memory_order_relaxed));
        Val = Policy::readValue(Curr->Val, Curr);
        ++Hops;
      }
      stats::noteTraversal(Hops);
      return Out.size() - Entry;
    }
  }

  Reclaim &reclaimDomain() { return Domain; }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    for (const Node *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = rawVal(Curr);
      D.Marked = Curr->Marked.load(std::memory_order_relaxed);
      D.Locked = Curr->NodeLock.isLocked();
      if (!V(D))
        return;
    }
  }

private:
  /// One node per cache line: a locked/marked node does not invalidate
  /// its neighbours' lines.
  struct alignas(CacheLineBytes) Node {
    explicit Node(SetKey Val) : Val(Val) {}

    /// Immutable per incarnation; atomic under VBR where a revival
    /// overwrites it beneath stale readers.
    std::conditional_t<Versioned, std::atomic<SetKey>, const SetKey> Val;
    std::atomic<Node *> Next{nullptr};
    std::atomic<bool> Marked{false};
    LockT NodeLock;
  };

  /// Traversal/validation read of a node's key (see VblList::readVal).
  static SetKey readVal(const Node *N) {
    if constexpr (Versioned)
      return Policy::read(N->Val, std::memory_order_acquire, N,
                          MemField::Val);
    else
      return Policy::readValue(N->Val, N);
  }

  /// Scheduler-invisible key read for quiescent walks.
  static SetKey rawVal(const Node *N) {
    if constexpr (Versioned)
      return N->Val.load(std::memory_order_relaxed);
    else
      return N->Val;
  }

  /// Node allocation (reclaim::domainCreate); a recycled VBR block gets
  /// its key and mark release-stored over the previous incarnation.
  /// Locks are never revived: retire paths release them first.
  Node *makeNode(SetKey Key) {
    return reclaim::domainCreate<Node, Policy>(Domain, Key, [Key](auto *N) {
      Policy::write(N->Val, Key, std::memory_order_release, N,
                    MemField::Val);
      Policy::write(N->Marked, false, std::memory_order_release, N,
                    MemField::Marked);
    });
  }

  /// Second window lock. Blocking in traversal order is deadlock-free
  /// only while nodes cannot move; under VBR a recycled curr may sit
  /// before prev, so curr is try-locked and a miss restarts.
  bool lockCurr(Node *Curr) VBL_TRY_ACQUIRE(true, Curr->NodeLock) {
    if constexpr (Versioned) {
      const bool Ok = Policy::lockTryAcquire(Curr->NodeLock, Curr);
      if (!Ok)
        stats::bump(stats::Counter::ListTrylockFailures);
      return Ok;
    } else {
      Policy::lockAcquire(Curr->NodeLock, Curr);
      return true;
    }
  }

  /// Wait-free traversal from the head (the Lazy list has no
  /// restart-from-prev optimisation). Returns curr's value as well:
  /// values are immutable, so the presence decision made under the
  /// locks can reuse the traversal's read.
  ///
  /// VBR mode: each hop reads curr's key and next, then certifies
  /// curr's birth epoch against the guard's version; a reject refreshes
  /// the version and re-walks from the head (see VblList::traverse for
  /// the safety argument).
  std::tuple<Node *, Node *, SetKey>
  traverse(SetKey Key, typename Reclaim::Guard &G) const {
    if constexpr (Versioned) {
      for (;;) {
        Node *Prev = Head;
        Node *Curr = Policy::read(Prev->Next, std::memory_order_acquire,
                                  Prev, MemField::Next);
        uint64_t Hops = 0;
        for (;;) {
          const SetKey Val = readVal(Curr);
          Node *Succ = Policy::read(Curr->Next, std::memory_order_acquire,
                                    Curr, MemField::Next);
          if (!Domain.validAt(Curr, G.version()))
            break; // Recycled under us: restart from the head.
          if (Val >= Key) {
            stats::noteTraversal(Hops);
            return {Prev, Curr, Val};
          }
          Prev = Curr;
          Curr = Succ;
          ++Hops;
        }
        stats::noteTraversal(Hops);
        G.refresh();
        Policy::onRestart();
      }
    } else {
      Node *Prev = Head;
      Node *Curr = Policy::read(Prev->Next, std::memory_order_acquire, Prev,
                                MemField::Next);
      SetKey Val = Policy::readValue(Curr->Val, Curr);
      uint64_t Hops = 0; // Accumulated locally; one stats call at the end.
      while (Val < Key) {
        Prev = Curr;
        Curr = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                            MemField::Next);
        // See contains(): overlap the successor fetch with the compare.
        if constexpr (!Policy::Traced)
          VBL_PREFETCH(Curr->Next.load(std::memory_order_relaxed));
        Val = Policy::readValue(Curr->Val, Curr);
        ++Hops;
      }
      stats::noteTraversal(Hops);
      return {Prev, Curr, Val};
    }
  }

  /// Heller et al. validation, under both locks: the window is live and
  /// adjacent. A failure here is the §2.3 rejected schedule the
  /// validation-abort counter measures.
  ///
  /// VBR adds birth checks on both nodes, evaluated after the field
  /// reads they certify: once prev and curr pass as unmarked, adjacent
  /// and of traversal-certified incarnations while both locks are held,
  /// neither block can be retired (retire needs the mark, the mark
  /// needs the lock) — the window is stable for the critical section.
  bool validate(Node *Prev, Node *Curr,
                typename Reclaim::Guard &G) const {
    bool Ok =
        !Policy::readCheck(Prev->Marked, std::memory_order_acquire, Prev,
                           MemField::Marked) &&
        !Policy::readCheck(Curr->Marked, std::memory_order_acquire, Curr,
                           MemField::Marked) &&
        Policy::readCheck(Prev->Next, std::memory_order_acquire, Prev,
                          MemField::Next) == Curr;
    if constexpr (Versioned)
      Ok = Ok && Domain.validAt(Prev, G.version()) &&
           Domain.validAt(Curr, G.version());
    if (!Ok)
      stats::bump(stats::Counter::ListValidationAborts);
    return Ok;
  }

  Node *Head;
  Node *Tail;
  mutable Reclaim Domain;
};

} // namespace vbl

#endif // VBL_LISTS_LAZYLIST_H
