//===- tests/analysis/FlowMutantLists.h - Seeded flow-invariant bugs -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deliberately broken toy lists, RacyList-style, each seeding exactly
/// one flow-invariant violation so FlowMutantsTest can assert the
/// checker flags the *exact* clause (and nothing else is needed to
/// trip it):
///
///   RudeList        remove() unlinks the victim WITHOUT marking it
///                   first — the unlink-before-mark lost-update shape.
///                   Expected clause: F6 UnlinkedUnmarked.
///   ForgetfulList   remove() marks the victim but never unlinks it.
///                   Expected clause: F7 MarkedLingers (at episode
///                   end; marked-yet-reachable is legal mid-episode).
///   SloppyChunkList insert() publishes every key into the FIRST chunk
///                   regardless of the chunk's keyset interval.
///                   Expected clause: F4 ChunkInterval.
///
/// Everything else in each list follows the usual discipline so the
/// expected finding is pinned to the one seeded bug. Like RacyList,
/// these are only ever driven by the deterministic step scheduler, so
/// they need no reclamation domain (removed nodes go to a Garbage
/// list freed with the structure).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_TESTS_ANALYSIS_FLOWMUTANTLISTS_H
#define VBL_TESTS_ANALYSIS_FLOWMUTANTLISTS_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace vbl {
namespace tests {

/// Common flat-node scaffolding for the two flat mutants: a sorted
/// list with a Marked flag, correct release publication and acquire
/// traversal. Only remove() differs between the mutants.
template <class PolicyT>
class FlatMutantBase
    : public analysis::QuiescentChain<FlatMutantBase<PolicyT>> {
public:
  using Policy = PolicyT;

  static constexpr analysis::FlowTraits Flow{};

  struct Node {
    explicit Node(SetKey Val) : Val(Val) {}
    const SetKey Val;
    std::atomic<Node *> Next{nullptr};
    std::atomic<bool> Marked{false};
  };

  FlatMutantBase() {
    Tail = new Node(MaxSentinel);
    Head = new Node(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~FlatMutantBase() {
    for (Node *Curr = Head; Curr;) {
      Node *Next = Curr->Next.load(std::memory_order_relaxed);
      delete Curr;
      Curr = Next;
    }
    for (Node *Dead : Garbage)
      delete Dead;
  }

  FlatMutantBase(const FlatMutantBase &) = delete;
  FlatMutantBase &operator=(const FlatMutantBase &) = delete;

  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = locate(Key);
    if (Policy::readValue(Curr->Val, Curr) == Key)
      return false;
    Node *NewNode = new Node(Key);
    NewNode->Next.store(Curr, std::memory_order_relaxed);
    Policy::onNewNode(NewNode, Key);
    Policy::write(Prev->Next, NewNode, std::memory_order_release, Prev,
                  MemField::Next);
    return true;
  }

  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = locate(Key);
    (void)Prev;
    return Policy::readValue(Curr->Val, Curr) == Key &&
           !Policy::read(Curr->Marked, std::memory_order_acquire, Curr,
                         MemField::Marked);
  }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    for (const Node *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = Curr->Val;
      D.Marked = Curr->Marked.load(std::memory_order_relaxed);
      if (!V(D))
        return;
    }
  }

protected:
  std::pair<Node *, Node *> locate(SetKey Key) const {
    Node *Prev = Head;
    Node *Curr = Policy::read(Prev->Next, std::memory_order_acquire, Prev,
                              MemField::Next);
    while (Policy::readValue(Curr->Val, Curr) < Key) {
      Prev = Curr;
      Curr = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                          MemField::Next);
    }
    return {Prev, Curr};
  }

  Node *Head;
  Node *Tail;
  std::vector<Node *> Garbage;
};

/// Seeded bug: unlink without marking. The victim leaves the reachable
/// set while still unmarked — exactly what F6 UnlinkedUnmarked rejects.
template <class PolicyT>
class RudeList : public FlatMutantBase<PolicyT> {
  using Base = FlatMutantBase<PolicyT>;
  using Policy = PolicyT;
  using typename Base::Node;

public:
  static constexpr unsigned UnlinkLine = __LINE__ + 5;
  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = this->locate(Key);
    if (Policy::readValue(Curr->Val, Curr) != Key)
      return false;
    // BUG: no logical deletion — the node vanishes unmarked.
    Policy::write(Prev->Next,
                  Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                               MemField::Next),
                  std::memory_order_release, Prev, MemField::Next);
    this->Garbage.push_back(Curr);
    return true;
  }
};

/// Seeded bug: mark without unlinking. The victim stays reachable and
/// marked forever — legal mid-episode (every backend has that window)
/// but a violation of F7 MarkedLingers once all operations returned.
template <class PolicyT>
class ForgetfulList : public FlatMutantBase<PolicyT> {
  using Base = FlatMutantBase<PolicyT>;
  using Policy = PolicyT;
  using typename Base::Node;

public:
  static constexpr unsigned MarkLine = __LINE__ + 5;
  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    auto [Prev, Curr] = this->locate(Key);
    (void)Prev;
    if (Policy::readValue(Curr->Val, Curr) != Key)
      return false;
    // BUG: logical deletion only — the unlink never happens.
    Policy::write(Curr->Marked, true, std::memory_order_release, Curr,
                  MemField::Marked);
    return true;
  }
};

/// A fixed two-chunk toy (head -> A@10 -> B@20 -> tail, four slots per
/// chunk) whose insert publishes every key into chunk A regardless of
/// interval — keys >= 20 land outside A's keyset [10, 20), the exact
/// shape F4 ChunkInterval rejects. remove/contains are honest.
template <class PolicyT>
class SloppyChunkList
    : public analysis::QuiescentChain<SloppyChunkList<PolicyT>> {
public:
  using Policy = PolicyT;
  static constexpr analysis::FlowTraits Flow{.IsChunked = true};
  static constexpr unsigned Capacity = 4;
  static constexpr SetKey AnchorA = 10;
  static constexpr SetKey AnchorB = 20;

  struct Chunk {
    explicit Chunk(SetKey Anchor) : Anchor(Anchor) {}
    const SetKey Anchor;
    std::atomic<Chunk *> Next{nullptr};
    std::atomic<bool> Marked{false};
    std::atomic<uint32_t> FirstClean{0};
    std::atomic<uint64_t> Occ{0};
    std::array<std::atomic<SetKey>, Capacity> Keys{};
  };

  SloppyChunkList() {
    Tail = new Chunk(MaxSentinel);
    B = new Chunk(AnchorB);
    A = new Chunk(AnchorA);
    Head = new Chunk(MinSentinel);
    B->Next.store(Tail, std::memory_order_relaxed);
    A->Next.store(B, std::memory_order_relaxed);
    Head->Next.store(A, std::memory_order_relaxed);
  }

  ~SloppyChunkList() {
    delete Head;
    delete A;
    delete B;
    delete Tail;
  }

  SloppyChunkList(const SloppyChunkList &) = delete;
  SloppyChunkList &operator=(const SloppyChunkList &) = delete;

  static constexpr unsigned MisroutedStoreLine = __LINE__ + 9;
  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    if (find(Key))
      return false;
    // BUG: every key is published into chunk A, ignoring the interval
    // its anchor bounds impose.
    Chunk *C = A;
    const uint32_t FC = Policy::read(C->FirstClean,
                                     std::memory_order_relaxed,
                                     &C->FirstClean, MemField::Marked);
    if (FC >= Capacity)
      return false; // Toy: no structural path.
    Policy::write(C->Keys[FC], Key, std::memory_order_relaxed, &C->Keys[FC],
                  MemField::Val);
    const uint64_t O = Policy::read(C->Occ, std::memory_order_relaxed,
                                    &C->Occ, MemField::Marked);
    Policy::write(C->Occ, O | (uint64_t{1} << FC),
                  std::memory_order_release, &C->Occ, MemField::Marked);
    Policy::write(C->FirstClean, FC + 1, std::memory_order_relaxed,
                  &C->FirstClean, MemField::Marked);
    return true;
  }

  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    for (Chunk *C : {A, B}) {
      const uint64_t Occ = Policy::read(C->Occ, std::memory_order_acquire,
                                        &C->Occ, MemField::Marked);
      for (uint32_t I = 0; I < Capacity; ++I) {
        if (!(Occ & (uint64_t{1} << I)))
          continue;
        if (Policy::read(C->Keys[I], std::memory_order_relaxed,
                         &C->Keys[I], MemField::Val) == Key) {
          Policy::write(C->Occ, Occ & ~(uint64_t{1} << I),
                        std::memory_order_release, &C->Occ,
                        MemField::Marked);
          return true;
        }
      }
    }
    return false;
  }

  bool contains(SetKey Key) const { return find(Key); }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    D.IsChunk = true;
    D.Capacity = Capacity;
    for (const Chunk *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = Curr->Anchor;
      D.Marked = Curr->Marked.load(std::memory_order_relaxed);
      D.FirstClean = Curr->FirstClean.load(std::memory_order_relaxed);
      D.Slots.clear();
      const uint64_t Occ = Curr->Occ.load(std::memory_order_relaxed);
      for (uint32_t I = 0; I < Capacity; ++I)
        if (Occ & (uint64_t{1} << I))
          D.Slots.push_back(
              {I, Curr->Keys[I].load(std::memory_order_relaxed)});
      if (!V(D))
        return;
    }
  }

private:
  bool find(SetKey Key) const {
    for (const Chunk *C : {A, B}) {
      const uint64_t Occ = Policy::read(C->Occ, std::memory_order_acquire,
                                        &C->Occ, MemField::Marked);
      for (uint32_t I = 0; I < Capacity; ++I)
        if ((Occ & (uint64_t{1} << I)) &&
            Policy::read(C->Keys[I], std::memory_order_relaxed, &C->Keys[I],
                         MemField::Val) == Key)
          return true;
    }
    return false;
  }

  Chunk *Head;
  Chunk *A;
  Chunk *B;
  Chunk *Tail;
};

} // namespace tests
} // namespace vbl

#endif // VBL_TESTS_ANALYSIS_FLOWMUTANTLISTS_H
