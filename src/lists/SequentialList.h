//===- lists/SequentialList.h - The sequential specification LL ----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: the plain sequential sorted linked list LL
/// that defines the set type and — crucially — defines what a *schedule*
/// is: an interleaving of exactly these reads, writes and node
/// creations. Three roles in this repo:
///
///  1. The oracle for differential tests of every concurrent list.
///  2. Run under sched::TracedPolicy by the interleaving explorer, its
///     unsynchronized steps *generate* the schedule space § of §2.2.
///  3. The reference the SpecInterpreter checks local serializability
///     against.
///
/// NOT thread-safe under DirectPolicy; concurrent execution is only
/// meaningful under the deterministic scheduler, which serializes steps.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_SEQUENTIALLIST_H
#define VBL_LISTS_SEQUENTIALLIST_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <atomic>
#include <vector>

namespace vbl {

/// States no flow traits: the explorer runs this list through wrong
/// interleavings on purpose, so it never feeds the flow oracle.
template <class PolicyT = DirectPolicy>
class SequentialList
    : public analysis::QuiescentChain<SequentialList<PolicyT>> {
public:
  using Policy = PolicyT;

  SequentialList() {
    Node *Tail = makeNode(MaxSentinel);
    Head = makeNode(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~SequentialList() {
    for (Node *N : Allocated)
      delete N;
  }

  SequentialList(const SequentialList &) = delete;
  SequentialList &operator=(const SequentialList &) = delete;

  /// LL insert(v): lines 6-15 of Algorithm 1.
  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    Node *Prev = Head;
    Node *Curr = Policy::read(Prev->Next, std::memory_order_relaxed, Prev,
                              MemField::Next);
    SetKey Val = Policy::readValue(Curr->Val, Curr);
    while (Val < Key) {
      Prev = Curr;
      Curr = Policy::read(Curr->Next, std::memory_order_relaxed, Curr,
                          MemField::Next);
      Val = Policy::readValue(Curr->Val, Curr);
    }
    if (Val == Key)
      return false;
    Node *NewNode = makeNode(Key);
    NewNode->Next.store(Curr, std::memory_order_relaxed);
    Policy::onNewNode(NewNode, Key);
    Policy::write(Prev->Next, NewNode, std::memory_order_relaxed, Prev,
                  MemField::Next);
    return true;
  }

  /// LL remove(v): lines 16-25 of Algorithm 1. The removed node stays
  /// allocated until the list dies: under the deterministic scheduler a
  /// concurrent LL operation may still be positioned on it.
  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    Node *Prev = Head;
    Node *Curr = Policy::read(Prev->Next, std::memory_order_relaxed, Prev,
                              MemField::Next);
    SetKey Val = Policy::readValue(Curr->Val, Curr);
    while (Val < Key) {
      Prev = Curr;
      Curr = Policy::read(Curr->Next, std::memory_order_relaxed, Curr,
                          MemField::Next);
      Val = Policy::readValue(Curr->Val, Curr);
    }
    if (Val != Key)
      return false;
    Node *Succ = Policy::read(Curr->Next, std::memory_order_relaxed, Curr,
                              MemField::Next);
    Policy::write(Prev->Next, Succ, std::memory_order_relaxed, Prev,
                  MemField::Next);
    return true;
  }

  /// LL contains(v): lines 26-31 of Algorithm 1.
  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    const Node *Curr = Policy::read(Head->Next, std::memory_order_relaxed,
                                    Head, MemField::Next);
    SetKey Val = Policy::readValue(Curr->Val, Curr);
    while (Val < Key) {
      Curr = Policy::read(Curr->Next, std::memory_order_relaxed, Curr,
                          MemField::Next);
      Val = Policy::readValue(Curr->Val, Curr);
    }
    return Val == Key;
  }

  /// LL range scan: the reference shape every concurrent scan's exported
  /// projection is checked against — read next(head), then alternate
  /// read val / read next until the value exceeds Hi, collecting keys
  /// inside [Lo, Hi].
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) const {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    const size_t Entry = Out.size();
    const Node *Curr = Policy::read(Head->Next, std::memory_order_relaxed,
                                    Head, MemField::Next);
    SetKey Val = Policy::readValue(Curr->Val, Curr);
    while (Val <= Hi) {
      if (Val >= Lo)
        Out.push_back(Val);
      Curr = Policy::read(Curr->Next, std::memory_order_relaxed, Curr,
                          MemField::Next);
      Val = Policy::readValue(Curr->Val, Curr);
    }
    return Out.size() - Entry;
  }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    for (const Node *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = Curr->Val;
      if (!V(D))
        return;
    }
  }

private:
  struct Node {
    explicit Node(SetKey Val) : Val(Val) {}

    const SetKey Val;
    /// Atomic only so TracedPolicy can mediate the access; the
    /// sequential algorithm itself uses relaxed plain-memory semantics.
    std::atomic<Node *> Next{nullptr};
  };

  /// Every node this list allocated, freed by the destructor. Wrong
  /// interleavings lose links on purpose (a lost update leaves a node
  /// neither reachable nor removed), so reachability cannot tell what
  /// to free.
  Node *makeNode(SetKey Key) {
    Allocated.push_back(new Node(Key));
    return Allocated.back();
  }

  Node *Head;
  std::vector<Node *> Allocated;
};

} // namespace vbl

#endif // VBL_LISTS_SEQUENTIALLIST_H
