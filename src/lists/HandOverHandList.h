//===- lists/HandOverHandList.h - Lock-coupling list ----------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fine-grained "hand-over-hand" locking (Herlihy & Shavit §9.5): a
/// traversal always holds the lock of the node it stands on, acquiring
/// the successor's lock before releasing the current one. Pipelined but
/// never truly parallel on the shared prefix, so it illustrates why
/// lock-coupling does not scale — the contrast that motivates the
/// optimistic/lazy/VBL family.
///
/// Because any thread positioned on a node holds that node's lock, a
/// remover holding (prev, curr) has exclusive access to curr: unlinked
/// nodes can be freed immediately, no reclamation domain needed.
///
/// `Next` is an atomic only so the access policy can mediate it (the
/// deterministic scheduler needs a yield point per shared access); all
/// accesses are lock-protected, so relaxed ordering suffices and
/// DirectPolicy compiles to the plain pointer the textbook version uses.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_HANDOVERHANDLIST_H
#define VBL_LISTS_HANDOVERHANDLIST_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "support/ThreadSafety.h"
#include "sync/Policy.h"
#include "sync/SpinLocks.h"

#include <atomic>
#include <utility>
#include <vector>

namespace vbl {

/// PolicyT comes last so the historical HandOverHandList<Lock> spelling
/// keeps compiling.
template <class LockT = TasLock, class PolicyT = DirectPolicy>
class HandOverHandList
    : public analysis::QuiescentChain<HandOverHandList<LockT, PolicyT>> {
public:
  using Policy = PolicyT;

  /// HasMark is false: removal unlinks a live node under both locks and
  /// frees it immediately, so the mark-related clauses do not apply and
  /// unlinked nodes must never be tracked (they are gone).
  static constexpr analysis::FlowTraits Flow{.HasMark = false};

  /// contains() couples locks from the head like every update, so
  /// readers queue behind each other on the shared prefix: the sharded
  /// front-end combines batches over this list
  /// (SetAdapter::readsTakeLocks).
  static constexpr bool ReadsTakeLocks = true;

  HandOverHandList() {
    Tail = new Node(MaxSentinel);
    Head = new Node(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~HandOverHandList() {
    Node *Curr = Head;
    while (Curr) {
      Node *Next = Curr->Next.load(std::memory_order_relaxed);
      delete Curr;
      Curr = Next;
    }
  }

  HandOverHandList(const HandOverHandList &) = delete;
  HandOverHandList &operator=(const HandOverHandList &) = delete;

  // Suppressed: releases the (prev, curr) locks lockedTraverse acquired
  // on its behalf — capabilities handed over through return values are
  // invisible to the analysis.
  bool insert(SetKey Key) VBL_NO_THREAD_SAFETY_ANALYSIS {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = lockedTraverse(Key);
    const bool Absent = Curr->Val != Key;
    if (Absent) {
      Node *NewNode = new Node(Key);
      Policy::onNewNode(NewNode, Key);
      NewNode->Next.store(Curr, std::memory_order_relaxed);
      Policy::write(Prev->Next, NewNode, std::memory_order_relaxed, Prev,
                    MemField::Next);
    }
    Policy::lockRelease(Curr->NodeLock, Curr);
    Policy::lockRelease(Prev->NodeLock, Prev);
    return Absent;
  }

  // Suppressed: see insert().
  bool remove(SetKey Key) VBL_NO_THREAD_SAFETY_ANALYSIS {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = lockedTraverse(Key);
    const bool Present = Curr->Val == Key;
    if (Present) {
      Policy::write(Prev->Next,
                    Policy::read(Curr->Next, std::memory_order_relaxed,
                                 Curr, MemField::Next),
                    std::memory_order_relaxed, Prev, MemField::Next);
      Policy::lockRelease(Curr->NodeLock, Curr);
      // Exclusive: nobody else can stand on Curr without its lock, and
      // Curr became unreachable a step ago — the free runs within the
      // lock-release step, before any between-step heap snapshot.
      delete Curr;
    } else {
      Policy::lockRelease(Curr->NodeLock, Curr);
    }
    Policy::lockRelease(Prev->NodeLock, Prev);
    return Present;
  }

  // Suppressed: see insert().
  bool contains(SetKey Key) const VBL_NO_THREAD_SAFETY_ANALYSIS {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = lockedTraverse(Key);
    const bool Present = Curr->Val == Key;
    Policy::lockRelease(Curr->NodeLock, Curr);
    Policy::lockRelease(Prev->NodeLock, Prev);
    return Present;
  }

  /// Lock-coupled range scan: walks the whole prefix up to Hi holding
  /// the coupling pair, collecting keys in [Lo, Hi]. Nodes are freed the
  /// instant they are unlinked, so the scan — like every traversal here
  /// — must never stand on a node it does not hold the lock of.
  //
  // Suppressed: see insert().
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) const
      VBL_NO_THREAD_SAFETY_ANALYSIS {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    const size_t Entry = Out.size();
    auto [Prev, Curr] = walk([&](SetKey Val) {
      if (Val > Hi)
        return true; // The tail sentinel stops every walk.
      if (Val >= Lo)
        Out.push_back(Val);
      return false;
    });
    Policy::lockRelease(Curr->NodeLock, Curr);
    Policy::lockRelease(Prev->NodeLock, Prev);
    return Out.size() - Entry;
  }

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
  struct Node {
    explicit Node(SetKey Val) : Val(Val) {}

    const SetKey Val;
    /// Reads and writes happen only under NodeLock; atomic purely for
    /// policy mediation (see file comment).
    std::atomic<Node *> Next{nullptr};
    LockT NodeLock;
  };

  /// Returns (prev, curr) with both locks held and
  /// prev.val < Key <= curr.val.
  std::pair<Node *, Node *> lockedTraverse(SetKey Key) const {
    return walk([Key](SetKey Val) { return Val >= Key; });
  }

  /// The list's one hop loop, lock-coupled: from the head, holding the
  /// lock of the node it stands on and of the one it reads, until
  /// \p Stop accepts a key (Stop sees every key in list order and may
  /// collect it). Returns (prev, curr) for that node, both locks held.
  //
  // Suppressed: the coupling loop acquires and releases locks through a
  // moving pointer pair and exits holding the two locks named by its
  // *return value* — neither is expressible as a lexical capability.
  template <class StopFn>
  std::pair<Node *, Node *> walk(StopFn Stop) const
      VBL_NO_THREAD_SAFETY_ANALYSIS {
    Node *Prev = Head;
    Policy::lockAcquire(Prev->NodeLock, Prev);
    Node *Curr = Policy::read(Prev->Next, std::memory_order_relaxed, Prev,
                              MemField::Next);
    Policy::lockAcquire(Curr->NodeLock, Curr);
    while (!Stop(Policy::readValue(Curr->Val, Curr))) {
      Policy::lockRelease(Prev->NodeLock, Prev);
      Prev = Curr;
      Curr = Policy::read(Curr->Next, std::memory_order_relaxed, Curr,
                          MemField::Next);
      Policy::lockAcquire(Curr->NodeLock, Curr);
    }
    return {Prev, Curr};
  }

  Node *Head;
  Node *Tail;
};

} // namespace vbl

#endif // VBL_LISTS_HANDOVERHANDLIST_H
