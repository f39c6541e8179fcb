//===- tests/analysis/RacyList.h - A deliberately racy sorted list -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A toy concurrent sorted list with one *seeded* synchronization bug:
/// insert publishes the new node with a relaxed store instead of a
/// release store, so a concurrent traversal can reach the node without
/// any happens-before edge ordering it after the node's initialisation.
/// Everything else follows the usual discipline (acquire traversal
/// loads, release unlink in remove), which pins the detector's expected
/// finding to exactly one write site.
///
/// The racy accesses live in tiny single-line helpers with an adjacent
/// __LINE__ constant so the test can assert the *exact* pair of access
/// sites the race detector reports.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_TESTS_ANALYSIS_RACYLIST_H
#define VBL_TESTS_ANALYSIS_RACYLIST_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <atomic>
#include <utility>
#include <vector>

namespace vbl {
namespace tests {

/// States no flow traits: the race detector's fixture never feeds the
/// flow oracle.
template <class PolicyT>
class RacyList : public analysis::QuiescentChain<RacyList<PolicyT>> {
public:
  using Policy = PolicyT;

  struct Node {
    explicit Node(SetKey Val) : Val(Val) {}
    const SetKey Val;
    std::atomic<Node *> Next{nullptr};
  };

  /// The seeded bug: publication of the new node uses a relaxed store,
  /// so readers reaching it get no acquire edge back to its init.
  static constexpr unsigned PublishLine = __LINE__ + 2;
  void publish(Node *Prev, Node *NewNode) {
    Policy::write(Prev->Next, NewNode, std::memory_order_relaxed, Prev, MemField::Next);
  }

  /// Traversal load — correct (acquire), but racing with publish().
  static constexpr unsigned TraverseLine = __LINE__ + 2;
  Node *readNext(const Node *From) const {
    return Policy::read(From->Next, std::memory_order_acquire, From, MemField::Next);
  }

  RacyList() {
    Tail = new Node(MaxSentinel);
    Head = new Node(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~RacyList() {
    for (Node *Curr = Head; Curr;) {
      Node *Next = Curr->Next.load(std::memory_order_relaxed);
      delete Curr;
      Curr = Next;
    }
    for (Node *Dead : Garbage)
      delete Dead;
  }

  RacyList(const RacyList &) = delete;
  RacyList &operator=(const RacyList &) = delete;

  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = locate(Key);
    if (Policy::readValue(Curr->Val, Curr) == Key)
      return false;
    Node *NewNode = new Node(Key);
    NewNode->Next.store(Curr, std::memory_order_relaxed);
    Policy::onNewNode(NewNode, Key);
    publish(Prev, NewNode);
    return true;
  }

  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = locate(Key);
    if (Policy::readValue(Curr->Val, Curr) != Key)
      return false;
    Node *Succ = readNext(Curr);
    Policy::write(Prev->Next, Succ, std::memory_order_release, Prev,
                  MemField::Next);
    Garbage.push_back(Curr);
    return true;
  }

  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = locate(Key);
    (void)Prev;
    return Policy::readValue(Curr->Val, Curr) == Key;
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
  /// Returns (Prev, Curr) with Prev->Val < Key <= Curr->Val.
  std::pair<Node *, Node *> locate(SetKey Key) const {
    Node *Prev = Head;
    Node *Curr = readNext(Prev);
    while (Policy::readValue(Curr->Val, Curr) < Key) {
      Prev = Curr;
      Curr = readNext(Curr);
    }
    return {Prev, Curr};
  }

  Node *Head;
  Node *Tail;
  std::vector<Node *> Garbage;
};

} // namespace tests
} // namespace vbl

#endif // VBL_TESTS_ANALYSIS_RACYLIST_H
