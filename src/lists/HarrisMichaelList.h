//===- lists/HarrisMichaelList.h - Michael's lock-free list --------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Harris-Michael lock-free list (Michael, SPAA 2002; Herlihy &
/// Shavit ch. 9) — the paper's second comparator. Removal is split into
/// a logical CAS (setting the mark bit in the victim's next word) and a
/// physical CAS on the predecessor; if the physical step fails, the
/// *next* traversal that encounters the marked node unlinks it, and a
/// traversal whose unlink CAS fails restarts from the head. That
/// delegation is what makes the algorithm lock-free — and what rejects
/// the correct schedule of Fig. 3.
///
/// Representation: the mark lives in bit 0 of the 'next' word. The
/// paper's Java version needs an RTTI-subclass trick to read the mark
/// without an extra indirection; pointer tagging is the C++ equivalent
/// with zero indirections (see DESIGN.md substitutions).
///
/// One implementation serves every reclamation domain. Over hazard
/// pointers (reclaim::IsHazardDomain, the scheme Michael published the
/// algorithm with) each hop first publishes the node and revalidates the
/// edge it was read from, and contains/rangeQuery take the helping
/// protected walk, so they are lock-free rather than wait-free. Epoch,
/// leaky and other guard-scoped domains compile none of that in: their
/// contains/rangeQuery run peek(), the one read-only walk beside the
/// helping walk() that every update's find() runs.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_HARRISMICHAELLIST_H
#define VBL_LISTS_HARRISMICHAELLIST_H

#include "analysis/QuiescentChain.h"
#include "core/SetConfig.h"
#include "reclaim/EpochDomain.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/NodePool.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace vbl {

template <class ReclaimT = reclaim::EpochDomain,
          class PolicyT = DirectPolicy>
class HarrisMichaelList
    : public analysis::QuiescentChain<HarrisMichaelList<ReclaimT, PolicyT>> {
  /// One node per cache line so a CAS on one node's tagged word never
  /// invalidates a neighbour.
  struct alignas(CacheLineBytes) Node {
    explicit Node(SetKey Val) : Val(Val) {}

    const SetKey Val;
    /// Tagged word: successor pointer in the upper bits, "this node is
    /// logically deleted" in bit 0.
    std::atomic<uintptr_t> Next{0};
  };

  /// Michael's per-hop publish-and-revalidate, compiled in only for
  /// domains that protect individual pointers.
  static constexpr bool Hazard = reclaim::IsHazardDomain<ReclaimT>;

public:
  using Reclaim = ReclaimT;
  using Policy = PolicyT;
  using Guard = typename Reclaim::Guard;

  /// The mark is bit 0 of the node's own next word; marked nodes may
  /// legally stay reachable after remove() returns (delegated physical
  /// unlink).
  static constexpr analysis::FlowTraits Flow{.MarkedMayLinger = true};

  /// Opaque handle to a list node that the caller guarantees is never
  /// removed (the head sentinel, or the dummy nodes a split-ordered
  /// hash overlay pins into the list). Such a handle stays valid for
  /// the lifetime of the list, may seed *From() operations, and, being
  /// immortal, needs no hazard slot of its own.
  using BucketHandle = Node *;

  HarrisMichaelList() {
    Tail = reclaim::poolCreate<Node, Policy>(MaxSentinel);
    Head = reclaim::poolCreate<Node, Policy>(MinSentinel);
    Head->Next.store(pack(Tail, false), std::memory_order_relaxed);
  }

  ~HarrisMichaelList() {
    Node *Curr = Head;
    while (Curr) {
      Node *Next = ptrOf(Curr->Next.load(std::memory_order_relaxed));
      reclaim::poolDestroy<Policy>(Curr);
      Curr = Next;
    }
  }

  HarrisMichaelList(const HarrisMichaelList &) = delete;
  HarrisMichaelList &operator=(const HarrisMichaelList &) = delete;

  bool insert(SetKey Key) { return insertFrom(Key, Head); }
  bool remove(SetKey Key) { return removeFrom(Key, Head); }
  bool contains(SetKey Key) const { return containsFrom(Key, Head); }

  //===--------------------------------------------------------------===//
  // Split-ordered hash substrate hooks. Each operation behaves exactly
  // like its head-anchored counterpart but starts traversing at \p
  // Start, which must be a handle to a never-removed node whose key is
  // smaller than \p Key (a bucket dummy). Restarts re-traverse from
  // Start, never from the global head.
  //===--------------------------------------------------------------===//

  /// Handle of the head sentinel: bucket 0 of a split-ordered overlay.
  BucketHandle headHandle() { return Head; }

  /// Key stored at a handle (sentinels return their sentinel key).
  static SetKey handleKey(BucketHandle Handle) { return Handle->Val; }

  bool insertFrom(SetKey Key, BucketHandle Start) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    Guard G(Domain);
    Node *NewNode = nullptr;
    for (;;) {
      auto [Prev, Curr] = find(Key, Start, G);
      if (Curr->Val == Key) {
        reclaim::poolDestroy<Policy>(NewNode); // Never published.
        return false;
      }
      if (!NewNode) {
        NewNode = reclaim::poolCreate<Node, Policy>(Key);
        Policy::onNewNode(NewNode, Key);
      }
      NewNode->Next.store(pack(Curr, false), std::memory_order_relaxed);
      uintptr_t Expected = pack(Curr, false);
      // Release: publishes NewNode's fields together with the link.
      if (Policy::casStrong(Prev->Next, Expected, pack(NewNode, false),
                            std::memory_order_release, Prev,
                            MemField::Next))
        return true;
      stats::bump(stats::Counter::ListCasFailures);
      Policy::onRestart();
    }
  }

  bool removeFrom(SetKey Key, BucketHandle Start) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    Guard G(Domain);
    for (;;) {
      auto [Prev, Curr] = find(Key, Start, G);
      if (Curr->Val != Key)
        return false;
      const uintptr_t SuccWord =
          Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                       MemField::Next);
      if (markOf(SuccWord)) {
        // Someone else is removing Curr; help by re-finding.
        Policy::onRestart();
        continue;
      }
      Node *Succ = ptrOf(SuccWord);
      // Logical deletion: this CAS is the linearization point.
      uintptr_t Expected = pack(Succ, false);
      if (!Policy::casStrong(Curr->Next, Expected, pack(Succ, true),
                             std::memory_order_release, Curr,
                             MemField::Next)) {
        stats::bump(stats::Counter::ListCasFailures);
        Policy::onRestart();
        continue;
      }
      // Physical unlink: best effort. On failure the node stays linked
      // (marked) and some future find() unlinks and retires it.
      Expected = pack(Curr, false);
      if (Policy::casStrong(Prev->Next, Expected, pack(Succ, false),
                            std::memory_order_release, Prev,
                            MemField::Next))
        reclaim::poolRetire<Policy>(Domain, Curr);
      return true;
    }
  }

  /// Wait-free contains: the read-only walk without helping, then the
  /// mark from the found node's next word. Under hazard pointers every
  /// hop needs the revalidation loop, so it runs find() instead
  /// (lock-free).
  bool containsFrom(SetKey Key, const Node *Start) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    Guard G(Domain);
    if constexpr (Hazard)
      return mutableThis()->find(Key, const_cast<Node *>(Start), G)
                 .second->Val == Key;
    bool Present = false;
    peek(Start, [&](SetKey Val, auto Mark) {
      if (Val < Key)
        return false;
      Present = Val == Key && !Mark();
      return true;
    });
    return Present;
  }

  /// Wait-free range scan: appends every unmarked key in [Lo, Hi] to
  /// \p Out in ascending order and returns how many were appended. One
  /// next-word read per hop serves both the mark test and the advance,
  /// so a node observed unmarked at its visit is reported present (its
  /// linearization point is that read).
  ///
  /// Under hazard pointers the scan is find()'s protected walk from the
  /// head instead (lock-free). A restart discards the partial collect,
  /// so the keys always come from one uninterrupted protected walk.
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) const {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    Guard G(Domain);
    const size_t Entry = Out.size();
    if constexpr (Hazard) {
      mutableThis()->walk(
          Head, G,
          [&](SetKey Val) {
            if (Val > Hi)
              return true; // The tail sentinel stops every walk.
            if (Val >= Lo)
              Out.push_back(Val);
            return false;
          },
          [&] { Out.resize(Entry); });
      return Out.size() - Entry;
    }
    peek(Head, [&](SetKey Val, auto Mark) {
      if (Val > Hi)
        return true; // The tail sentinel stops every walk.
      if (Val >= Lo && !Mark())
        Out.push_back(Val);
      return false;
    });
    return Out.size() - Entry;
  }

  /// Get-or-insert for split-order dummy nodes: returns a handle to the
  /// unique node carrying \p Key, inserting it if absent. The caller
  /// promises the key is never removed from the set (dummy keys are not
  /// user-visible), which is what makes the returned handle stable.
  BucketHandle getOrInsertSentinelFrom(SetKey Key, BucketHandle Start) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    Guard G(Domain);
    Node *NewNode = nullptr;
    for (;;) {
      auto [Prev, Curr] = find(Key, Start, G);
      if (Curr->Val == Key) {
        reclaim::poolDestroy<Policy>(NewNode); // Never published.
        return Curr;
      }
      if (!NewNode) {
        NewNode = reclaim::poolCreate<Node, Policy>(Key);
        Policy::onNewNode(NewNode, Key);
      }
      NewNode->Next.store(pack(Curr, false), std::memory_order_relaxed);
      uintptr_t Expected = pack(Curr, false);
      if (Policy::casStrong(Prev->Next, Expected, pack(NewNode, false),
                            std::memory_order_release, Prev,
                            MemField::Next))
        return NewNode;
      stats::bump(stats::Counter::ListCasFailures);
      Policy::onRestart();
    }
  }

  Reclaim &reclaimDomain() { return Domain; }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    for (const Node *Curr = Head; Curr;) {
      const uintptr_t Word = Curr->Next.load(std::memory_order_relaxed);
      D.Node = Curr;
      D.Key = Curr->Val;
      D.Marked = markOf(Word);
      if (!V(D))
        return;
      Curr = ptrOf(Word);
    }
  }

private:
  static Node *ptrOf(uintptr_t Word) {
    return reinterpret_cast<Node *>(Word & ~uintptr_t(1));
  }
  static bool markOf(uintptr_t Word) { return Word & 1; }
  static uintptr_t pack(const Node *Ptr, bool Marked) {
    const auto Raw = reinterpret_cast<uintptr_t>(Ptr);
    VBL_ASSERT((Raw & 1) == 0, "node pointers must be 2-byte aligned");
    return Raw | static_cast<uintptr_t>(Marked);
  }

  HarrisMichaelList *mutableThis() const {
    return const_cast<HarrisMichaelList *>(this);
  }

  /// Michael's find: returns (prev, curr) with curr unmarked,
  /// prev.val < Key <= curr.val and prev->next == curr.
  std::pair<Node *, Node *> find(SetKey Key, Node *Start, Guard &G) {
    return walk(
        Start, G, [Key](SetKey Val) { return Val >= Key; }, [] {});
  }

  /// Michael's traversal from \p Start (the head, or a never-removed
  /// bucket dummy): visits unmarked nodes in key order and returns
  /// (prev, curr) for the first whose key satisfies \p Stop, with
  /// prev->next == curr. Unlinks every marked node it meets, and
  /// re-traverses from Start when an unlink CAS (or, under hazard
  /// pointers, a revalidation) loses a race; \p BeginAttempt runs
  /// before every attempt, the first included. Under hazard pointers
  /// curr and prev stay protected on return (Start is immortal and
  /// needs no slot).
  template <class StopFn, class AttemptFn>
  std::pair<Node *, Node *> walk(Node *Start, [[maybe_unused]] Guard &G,
                                 StopFn Stop, AttemptFn BeginAttempt) {
    uint64_t Hops = 0; // Accumulated across retries; one stats call.
  Retry:
    BeginAttempt();
    Node *Prev = Start;
    if constexpr (Hazard)
      G.clear(reclaim::HazardSlotPrev);
    Node *Curr = ptrOf(Policy::read(Prev->Next, std::memory_order_acquire,
                                    Prev, MemField::Next));
    for (;;) {
      if constexpr (Hazard) {
        // Publish Curr, then prove it was still linked from Prev
        // afterwards: a node is retired only after being unlinked, so
        // an unchanged edge means "not retired yet".
        G.set(reclaim::HazardSlotCurr, Curr);
        if (Policy::readCheck(Prev->Next, std::memory_order_seq_cst, Prev,
                              MemField::Next) != pack(Curr, false)) {
          Policy::onRestart();
          goto Retry;
        }
      }
      const uintptr_t SuccWord =
          Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                       MemField::Next);
      Node *Succ = ptrOf(SuccWord);
      // Overlap the successor fetch with the mark test and key compare.
      if constexpr (!Policy::Traced)
        VBL_PREFETCH(Succ);
      ++Hops;
      if (markOf(SuccWord)) {
        // Curr is logically deleted: delegated physical unlink.
        uintptr_t Expected = pack(Curr, false);
        if (!Policy::casStrong(Prev->Next, Expected, pack(Succ, false),
                               std::memory_order_release, Prev,
                               MemField::Next)) {
          stats::bump(stats::Counter::ListCasFailures);
          Policy::onRestart();
          goto Retry; // The restart Fig. 3 exploits.
        }
        reclaim::poolRetire<Policy>(Domain, Curr);
        Curr = Succ;
        continue;
      }
      if (Stop(Policy::readValue(Curr->Val, Curr))) {
        stats::noteTraversal(Hops);
        return {Prev, Curr};
      }
      Prev = Curr;
      if constexpr (Hazard)
        G.set(reclaim::HazardSlotPrev, Curr);
      Curr = Succ;
    }
  }

  /// The read-only walk beside walk(), for guard-scoped domains: from
  /// \p Start (the head, or a never-removed bucket dummy) it follows
  /// next words without helping, reading each node's key, until
  /// \p Visit accepts one. Visit(Val, Mark) sees every node in list
  /// order, marked ones included, and may call Mark() for the node's
  /// deletion mark; that read of the next word is also the one the walk
  /// advances by, so each node's word is read once, and not at all for
  /// the node Visit stops on unless Visit asks.
  template <class VisitFn>
  void peek(const Node *Start, VisitFn Visit) const {
    const Node *Curr = ptrOf(Policy::read(
        Start->Next, std::memory_order_acquire, Start, MemField::Next));
    uint64_t Hops = 0; // One per next pointer followed; one stats call.
    for (;;) {
      // Pull the successor's line while this node's key is compared
      // (direct mode only; traced runs take no invisible shared reads).
      if constexpr (!Policy::Traced)
        VBL_PREFETCH(ptrOf(Curr->Next.load(std::memory_order_relaxed)));
      ++Hops;
      uintptr_t Word = 0;
      bool WordRead = false;
      const auto Mark = [&] {
        Word = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                            MemField::Next);
        WordRead = true;
        return markOf(Word);
      };
      if (Visit(Policy::readValue(Curr->Val, Curr), Mark)) {
        stats::noteTraversal(Hops);
        return;
      }
      if (!WordRead)
        Word = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                            MemField::Next);
      Curr = ptrOf(Word);
    }
  }

  Node *Head;
  Node *Tail;
  mutable Reclaim Domain;
};

} // namespace vbl

#endif // VBL_LISTS_HARRISMICHAELLIST_H
