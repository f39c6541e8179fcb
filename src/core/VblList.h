//===- core/VblList.h - The concurrency-optimal Value-Based List ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VBL list (Algorithm 2 of the paper): a linearizable,
/// deadlock-free, *concurrency-optimal* list-based set. Three ideas
/// compose:
///
///  1. Wait-free value-based traversals: the Lazy list's walk, but
///     reading keys and next pointers only (contains and rangeQuery
///     read no deletion mark at all). A failed validation restarts
///     from `prev` rather than from the head; the one mark an update
///     reads is that anchor's, to fall back to the head if it died.
///  2. Logical deletion before physical unlink (from Harris-Michael),
///     done under locks so each node is unlinked exactly once.
///  3. The value-aware try-lock (§3.1): updates validate the *data*
///     they are about to act on after acquiring the lock — and inserts
///     or removes that turn out to be read-only never lock at all.
///
/// Template knobs (used by the ablation benchmark):
///  - ReclaimT: memory reclamation domain (default epoch-based; the
///    paper's Java original delegates this to the GC).
///  - PolicyT: shared-memory access policy (DirectPolicy for production,
///    sched::TracedPolicy for deterministic schedule exploration).
///  - LockT: node lock (default CAS test-and-set, as in the paper).
///  - RestartFromPrev: restart failed attempts from `prev` (paper's
///    line-24 optimisation) instead of from the head.
///  - ValueAware: use lockNextAtValue for removals and decide
///    insert-present before locking. Setting this false degrades the
///    algorithm to Lazy-style node-identity validation, quantifying the
///    contribution of the value-aware rule in isolation.
///
/// Every traversal (contains, rangeQuery and the update traversal) runs
/// the one hop loop walk(); version-based reclamation only changes how
/// a hop is certified inside it.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_CORE_VBLLIST_H
#define VBL_CORE_VBLLIST_H

#include "analysis/QuiescentChain.h"
#include "core/BatchOp.h"
#include "core/SetConfig.h"
#include "core/ValueAwareTryLock.h"
#include "reclaim/EpochDomain.h"
#include "reclaim/NodePool.h"
#include "reclaim/VbrDomain.h"
#include "sync/Policy.h"
#include "sync/SpinLocks.h"

#include <atomic>
#include <tuple>
#include <type_traits>
#include <vector>

namespace vbl {

template <class ReclaimT = reclaim::EpochDomain,
          class PolicyT = DirectPolicy, class LockT = TasLock,
          bool RestartFromPrev = true, bool ValueAware = true>
class VblList
    : public analysis::QuiescentChain<
          VblList<ReclaimT, PolicyT, LockT, RestartFromPrev, ValueAware>> {
  /// Version-based reclamation changes the read protocol: nodes are
  /// revived in place, so keys become atomic (a revival overwrites them
  /// under readers), every traversal hop re-validates the node's birth
  /// epoch against the operation's start version, and restarts always
  /// re-enter from a never-retired anchor.
  static constexpr bool Versioned = reclaim::IsVersionedDomain<ReclaimT>;

  /// One node per cache line: no false sharing between a locked node
  /// and its neighbours (EXPERIMENTS.md, "Memory subsystem").
  struct alignas(CacheLineBytes) Node {
    explicit Node(SetKey Val) : Val(Val) {}

    /// Immutable for the node's lifetime under grace-period domains;
    /// atomic under VBR, where "lifetime" is one incarnation and a
    /// revival release-stores the next key over a stale reader's head.
    std::conditional_t<Versioned, std::atomic<SetKey>, const SetKey> Val;
    std::atomic<Node *> Next{nullptr};
    std::atomic<bool> Deleted{false};
    ValueAwareTryLock<LockT> NodeLock;
  };

public:
  using Reclaim = ReclaimT;
  using Policy = PolicyT;

  /// The Deleted flag; remove() unlinks before returning.
  static constexpr analysis::FlowTraits Flow{};

  /// Opaque handle to a list node that the caller guarantees is never
  /// removed (the head sentinel, or the dummy nodes a split-ordered
  /// hash overlay pins into the list). Such a handle stays valid for
  /// the lifetime of the list and may seed *From() operations.
  using BucketHandle = Node *;

  VblList() {
    // Under VBR sentinels need epoch headers too: traversals birth-check
    // every node uniformly. A fresh domain's free lists are empty, so
    // both are first incarnations (birth 0, accepted by every version).
    Tail = makeNode(MaxSentinel);
    Head = makeNode(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~VblList() {
    // Reachable nodes are freed here; unlinked nodes were retired and
    // are freed (or deliberately leaked) by the domain's destructor.
    Node *Curr = Head;
    while (Curr) {
      Node *Next = Curr->Next.load(std::memory_order_relaxed);
      reclaim::domainDispose<Policy>(Domain, Curr);
      Curr = Next;
    }
  }

  VblList(const VblList &) = delete;
  VblList &operator=(const VblList &) = delete;

  /// Adds \p Key; returns true iff it was absent. Never blocks — and
  /// never even locks — when the key is already present (ValueAware).
  bool insert(SetKey Key) { return insertFrom(Key, Head); }

  /// Removes \p Key; returns true iff it was present. Marks the node
  /// deleted, then unlinks it, both under the (prev, curr) locks.
  bool remove(SetKey Key) { return removeFrom(Key, Head); }

  /// Wait-free membership test. Reads only values and next pointers —
  /// no locks, no deletion marks (the "value-based" in VBL).
  bool contains(SetKey Key) const { return containsFrom(Key, Head); }

  /// Wait-free range scan: appends the keys in [\p Lo, \p Hi] to
  /// \p Out, ascending, and returns how many were appended. The walk is
  /// the value-based traversal of contains() extended past the first
  /// in-range node — no locks, no deletion marks — so each collected
  /// key is justified by the same single value read that linearizes a
  /// contains(key)==true at that hop, and each skipped key by the
  /// ordered pair of reads that straddles it: per-key linearizable over
  /// the scan's interval. Under VBR every hop is birth-certified and a
  /// reject restarts the whole collect from the head (lock-free).
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    typename Reclaim::Guard G(Domain);
    const size_t Entry = Out.size();
    walk(
        Head, G,
        [&](SetKey Val) {
          if (Val > Hi)
            return true; // The tail sentinel stops every walk.
          if (Val >= Lo)
            Out.push_back(Val);
          return false;
        },
        [&] { Out.resize(Entry); }); // Discard any partial attempt.
    return Out.size() - Entry;
  }

  //===--------------------------------------------------------------===//
  // Split-ordered hash substrate hooks. Identical protocols to the
  // head-anchored operations, but traversal starts at \p Start — a
  // handle to a never-removed node (bucket dummy) with key < Key.
  // Failed validations restart from the last known-good predecessor
  // exactly as before; only a deleted predecessor falls back to the
  // global head, which stays correct because the substrate list is
  // totally ordered.
  //===--------------------------------------------------------------===//

  /// Handle of the head sentinel: bucket 0 of a split-ordered overlay.
  BucketHandle headHandle() { return Head; }

  /// Key stored at a handle (sentinels return their sentinel key).
  static SetKey handleKey(BucketHandle Handle) { return rawVal(Handle); }

  bool insertFrom(SetKey Key, BucketHandle Start) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    Node *Anchor = Start;
    return insertCore(Key, Anchor, G);
  }

  bool removeFrom(SetKey Key, BucketHandle Start) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    Node *Anchor = Start;
    return removeCore(Key, Anchor, G);
  }

  bool containsFrom(SetKey Key, const Node *Start) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    return std::get<2>(walk(
               const_cast<Node *>(Start), G,
               [Key](SetKey Val) { return Val >= Key; }, [] {})) == Key;
  }

  /// Get-or-insert for split-order dummy nodes: returns a handle to the
  /// unique node carrying \p Key, inserting it if absent. The caller
  /// promises the key is never removed from the set (dummy keys are not
  /// user-visible), which is what makes the returned handle stable.
  BucketHandle getOrInsertSentinelFrom(SetKey Key, BucketHandle Start) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    Node *NewNode = nullptr;
    Node *From = Start;
    for (;;) {
      auto [Prev, Curr, Val] = traverse(Key, From, G);
      if constexpr (!Versioned)
        From = Prev; // Restart-from-prev; VBR always re-enters at Start.
      if (Val == Key) {
        // A node carrying Key exists and — caller's contract — is never
        // removed, so its identity is stable and safe to hand out.
        reclaim::domainAbandon<Policy>(Domain, NewNode); // Never published.
        return Curr;
      }
      if (!NewNode)
        NewNode = makeNode(Key);
      Policy::write(NewNode->Next, Curr, PrePublishOrder, NewNode,
                    MemField::Next);
      if (!lockNextAt(Prev, Curr, G)) {
        Policy::onRestart();
        continue;
      }
      Policy::write(Prev->Next, NewNode, std::memory_order_release, Prev,
                    MemField::Next);
      Prev->NodeLock.template release<Policy>(Prev);
      return NewNode;
    }
  }

  /// Applies \p N point ops, given as pointers in ascending-key order
  /// (same-key ops in submission order; see applySortedPointOps), under
  /// ONE reclaim guard, re-entering each walk from the previous op's
  /// final predecessor instead of the head. B sorted ops over an n-node
  /// list cost roughly one n-hop pass plus B validations instead of B
  /// full traversals — the service layer's batching win. Safe under
  /// full concurrency: the carried anchor is exactly the
  /// restart-from-prev anchor the per-op protocol already tolerates
  /// (traverse falls back to the head when the anchor is deleted), and
  /// the outer guard keeps the anchor's memory reclaim-safe across ops
  /// (EBR guards nest and pin the epoch). VBR re-enters every op at the
  /// head — an op-local anchor may be recycled into an unpublished node
  /// — keeping only the shared-guard amortization.
  void applyBatchSorted(BatchOp *const *Ops, size_t N) {
    typename Reclaim::Guard G(Domain);
    Node *Anchor = Head;
    const auto From = [&]() -> Node *& {
      if constexpr (Versioned)
        Anchor = Head;
      return Anchor;
    };
    applySortedPointOps(
        Ops, N, [&](SetKey Key) { return insertCore(Key, From(), G); },
        [&](SetKey Key) { return removeCore(Key, From(), G); },
        [&](SetKey Key) { return containsCore(Key, From(), G); });
  }

  //===--------------------------------------------------------------===//
  // Test and tooling support (not part of the concurrent hot path).
  //===--------------------------------------------------------------===//

  Reclaim &reclaimDomain() { return Domain; }

  /// The quiescent walk (analysis/QuiescentChain.h).
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    for (const Node *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = rawVal(Curr);
      D.Marked = Curr->Deleted.load(std::memory_order_relaxed);
      D.Locked = Curr->NodeLock.isLocked();
      if (!V(D))
        return;
    }
  }

private:
  /// Stores into a not-yet-published node. Plain relaxed for the
  /// grace-period domains; under VBR a revived block may still be read
  /// by a straggler from its previous incarnation, so the store must be
  /// a release to pair with the straggler's acquire.
  static constexpr std::memory_order PrePublishOrder =
      Versioned ? std::memory_order_release : std::memory_order_relaxed;

  /// Traversal/validation read of a node's key. VBR keys are atomic
  /// (revival overwrites them); acquire so the birth check that follows
  /// certifies this read (revival stamps birth before the key).
  static SetKey readVal(const Node *N) {
    if constexpr (Versioned)
      return Policy::read(N->Val, std::memory_order_acquire, N,
                          MemField::Val);
    else
      return Policy::readValue(N->Val, N);
  }

  /// Scheduler-invisible key read (the quiescent walk, handleKey).
  static SetKey rawVal(const Node *N) {
    if constexpr (Versioned)
      return N->Val.load(std::memory_order_relaxed);
    else
      return N->Val;
  }

  /// Node allocation (reclaim::domainCreate). A recycled VBR block's
  /// previous incarnation may still be read by a stale traversal, so
  /// the key and mark are release-stored over it, behind the domain's
  /// birth stamp: a reader that sees the new values also sees (and
  /// rejects on) the new birth epoch. The lock is untouched: every
  /// retire path releases it first, so a revived block's lock is free.
  Node *makeNode(SetKey Key) {
    return reclaim::domainCreate<Node, Policy>(Domain, Key, [Key](auto *N) {
      Policy::write(N->Val, Key, std::memory_order_release, N,
                    MemField::Val);
      Policy::write(N->Deleted, false, std::memory_order_release, N,
                    MemField::Marked);
    });
  }

  //===--------------------------------------------------------------===//
  // Operation cores: the per-op protocol loops with the reclaim guard
  // and the traversal anchor hoisted out, shared by the head-/bucket-
  // anchored entry points and the sorted-batch path. \p Anchor enters
  // as the walk's start node and leaves as the final traversal's
  // predecessor (prev.val < Key), which a sorted-batch caller reuses as
  // the next op's start under the same guard. Under VBR the out-value
  // must NOT be reused as an anchor (restart-from-prev is disabled);
  // applyBatchSorted re-enters at the head instead.
  //===--------------------------------------------------------------===//

  bool insertCore(SetKey Key, Node *&Anchor, typename Reclaim::Guard &G) {
    Node *NewNode = nullptr;
    Node *From = Anchor;
    for (;;) {
      auto [Prev, Curr, Val] = traverse(Key, From, G);
      if constexpr (!Versioned)
        From = Prev; // Restart-from-prev; VBR always re-enters at Start.
      Anchor = Prev;
      if (ValueAware && Val == Key) {
        // Present: decided from data alone, no lock was taken. This is
        // the schedule of Fig. 2 that the Lazy list rejects.
        reclaim::domainAbandon<Policy>(Domain, NewNode); // Never published.
        return false;
      }
      if (!NewNode)
        NewNode = makeNode(Key);
      // Pre-publication, but under VBR a stale reader may already hold
      // the revived block — release so its acquire of Next is ordered.
      Policy::write(NewNode->Next, Curr, PrePublishOrder, NewNode,
                    MemField::Next);
      if (!lockNextAt(Prev, Curr, G)) {
        Policy::onRestart();
        continue;
      }
      if (!ValueAware && Val == Key) {
        // Ablation mode: Lazy-style decision under the lock.
        Prev->NodeLock.template release<Policy>(Prev);
        reclaim::domainAbandon<Policy>(Domain, NewNode);
        return false;
      }
      // Publish: the release store makes NewNode's fields visible to any
      // traversal that acquires Prev->Next.
      Policy::write(Prev->Next, NewNode, std::memory_order_release, Prev,
                    MemField::Next);
      Prev->NodeLock.template release<Policy>(Prev);
      return true;
    }
  }

  bool removeCore(SetKey Key, Node *&Anchor, typename Reclaim::Guard &G) {
    Node *From = Anchor;
    for (;;) {
      auto [Prev, Curr, Val] = traverse(Key, From, G);
      if constexpr (!Versioned)
        From = Prev; // Restart-from-prev; VBR always re-enters at Start.
      Anchor = Prev;
      if (Val != Key)
        return false; // Absent: no lock taken.
      Node *Succ = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                                MemField::Next);
      // if constexpr (not a ternary) so the thread-safety analysis sees
      // a single unconditional try-acquire of Prev->NodeLock per
      // instantiation.
      bool PrevLocked;
      if constexpr (ValueAware)
        PrevLocked = lockNextAtValue(Prev, Key, G);
      else
        PrevLocked = lockNextAt(Prev, Curr, G);
      if (!PrevLocked) {
        Policy::onRestart();
        continue;
      }
      // Under Prev's lock Prev->Next is stable: every writer of a next
      // field holds the owning node's lock. (A validation re-read: the
      // LL-visible read of curr was done by the traversal.)
      Node *Victim = Policy::readCheck(Prev->Next, std::memory_order_acquire,
                                       Prev, MemField::Next);
      VBL_ASSERT(!ValueAware || rawVal(Victim) == Key,
                 "lockNextAtValue validated the successor value");
      if (!ValueAware && Victim != Curr)
        vbl_unreachable("lockNextAt validated the successor identity");
      if (!lockNextAt(Victim, Succ, G)) {
        Prev->NodeLock.template release<Policy>(Prev);
        // VBR: the walk stops at Victim and never certifies Succ, so a
        // Succ revived after the guard's version fails this check on
        // every restart unless the version moves on. Restarts re-enter
        // at a never-retired anchor, so refreshing here is as safe as
        // the walk's own refresh.
        if constexpr (Versioned)
          if (!Domain.validAt(Succ, G.version()))
            G.refresh();
        Policy::onRestart();
        continue;
      }
      // Logical deletion first (release: a traversal that reads the flag
      // must also see the list state that justified it), then unlink.
      Policy::write(Victim->Deleted, true, std::memory_order_release,
                    Victim, MemField::Marked);
      Policy::write(Prev->Next, Succ, std::memory_order_release, Prev,
                    MemField::Next);
      Victim->NodeLock.template release<Policy>(Victim);
      Prev->NodeLock.template release<Policy>(Prev);
      // Grace-period domains: pool deleter after the grace period. VBR:
      // stamp the retire epoch and recycle immediately (the lock is
      // released first — revival never touches lock state).
      reclaim::domainRetire<Policy>(Domain, Victim);
      return true;
    }
  }

  /// Batch membership test. It rides traverse() rather than
  /// containsFrom so it can hand the predecessor back as the next op's
  /// anchor; both run the same wait-free value walk.
  bool containsCore(SetKey Key, Node *&Anchor, typename Reclaim::Guard &G) {
    auto [Prev, Curr, Val] = traverse(Key, Anchor, G);
    (void)Curr;
    Anchor = Prev;
    return Val == Key;
  }

  /// The update traversal: walk() to the first node with key >= \p Key,
  /// returning (prev, curr, curr.val) with prev.val < Key <= curr.val.
  /// The value is returned so callers decide from the traversal's own
  /// read (LL's tval) instead of re-reading. \p Start is the caller's
  /// carried anchor; the walk enters there unless it has been logically
  /// deleted, in which case it falls back to the head (the one deletion
  /// mark any traversal reads, and only on the restart-from-prev path).
  ///
  /// VBR mode: \p Start must be a never-retired anchor (head or bucket
  /// dummy): restart-from-prev is disabled because a once-certified
  /// prev may be recycled into an in-flight, not-yet-published node
  /// that no birth check against a refreshed version can reject.
  std::tuple<Node *, Node *, SetKey>
  traverse(SetKey Key, Node *Start, typename Reclaim::Guard &G) const {
    if constexpr (!Versioned)
      if (!RestartFromPrev ||
          Policy::read(Start->Deleted, std::memory_order_acquire, Start,
                       MemField::Marked))
        Start = Head;
    return walk(
        Start, G, [Key](SetKey Val) { return Val >= Key; }, [] {});
  }

  /// §3.2 waitfreeTraversal, the list's one hop loop: follows next
  /// pointers from \p Start, reading each node's key and nothing else
  /// (no lock, no deletion mark), until \p Stop accepts a key. Returns
  /// (prev, curr, curr.val) for that node, prev being the node whose
  /// next field led to it. Stop sees every key in list order and may
  /// collect it; \p BeginAttempt runs before every attempt, the first
  /// included, so a caller can discard what a failed attempt collected.
  ///
  /// VBR mode: each hop reads curr's key and next, then certifies
  /// curr's birth epoch against the guard's version before Stop sees
  /// the key; a reject refreshes the version and re-walks from Start.
  /// Every node the walk advances over was therefore retired (if at
  /// all) no earlier than the start version, which is what makes the
  /// frozen next pointers of deleted-but-recycled-later nodes safe to
  /// traverse. This degrades wait-free to lock-free: every reject is
  /// caused by another thread's completed reuse.
  template <class StopFn, class AttemptFn>
  std::tuple<Node *, Node *, SetKey>
  walk(Node *Start, [[maybe_unused]] typename Reclaim::Guard &G,
       StopFn Stop, AttemptFn BeginAttempt) const {
    for (;;) {
      BeginAttempt();
      Node *Prev = Start;
      Node *Curr = Policy::read(Prev->Next, std::memory_order_acquire, Prev,
                                MemField::Next);
      uint64_t Hops = 0; // One per next pointer followed; one stats call.
      for (;;) {
        // Pull the successor's line while this node's key is compared
        // (direct mode over grace-period domains only: traced runs must
        // not perform an extra scheduler-invisible shared read).
        if constexpr (!Versioned && !Policy::Traced)
          VBL_PREFETCH(Curr->Next.load(std::memory_order_relaxed));
        ++Hops;
        const SetKey Val = readVal(Curr);
        Node *Succ = nullptr;
        if constexpr (Versioned) {
          Succ = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                              MemField::Next);
          if (!Domain.validAt(Curr, G.version()))
            break; // Recycled under us: restart from the anchor.
        }
        if (Stop(Val)) {
          stats::noteTraversal(Hops);
          return {Prev, Curr, Val};
        }
        Prev = Curr;
        if constexpr (Versioned)
          Curr = Succ;
        else
          Curr = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                              MemField::Next);
      }
      // Only a VBR birth reject leaves the hop loop.
      stats::noteTraversal(Hops);
      if constexpr (Versioned)
        G.refresh();
      Policy::onRestart();
    }
  }

  /// §3.1 lockNextAt: lock \p Node, keep it only if Node is alive and
  /// still points at \p Expected.
  ///
  /// VBR adds two birth checks, validated *after* the field reads: one
  /// on NodePtr (so the alive + successor facts belong to the traversal-
  /// certified incarnation — a block revived mid-validation shows its
  /// new birth through the same release chain that revealed the revived
  /// field), and one on Expected (the traversal's prev.val < Key <=
  /// curr.val placement was read from Expected's old incarnation; a
  /// recycled Expected republished at the same address could carry any
  /// key).
  bool lockNextAt(Node *NodePtr, Node *Expected, typename Reclaim::Guard &G)
      VBL_TRY_ACQUIRE(true, NodePtr->NodeLock) {
    const bool Ok = NodePtr->NodeLock.template acquireIfValid<Policy>(
        NodePtr, [&] {
          if (Policy::readCheck(NodePtr->Deleted,
                                std::memory_order_acquire, NodePtr,
                                MemField::Marked))
            return false;
          if (Policy::readCheck(NodePtr->Next, std::memory_order_acquire,
                                NodePtr, MemField::Next) != Expected)
            return false;
          if constexpr (Versioned) {
            if (!Domain.validAt(NodePtr, G.version()) ||
                !Domain.validAt(Expected, G.version()))
              return false;
          }
          return true;
        });
    if (!Ok)
      stats::bump(stats::Counter::ListTrylockFailures);
    return Ok;
  }

  /// §3.1 lockNextAtValue: lock \p Node, keep it only if Node is alive
  /// and its successor still stores \p Val — the successor node itself
  /// may have been replaced, which is exactly the schedule the identity
  /// check of the Lazy list would reject.
  ///
  /// VBR adds a birth check on NodePtr only: once NodePtr is certified
  /// alive in a <= version incarnation while we hold its lock, its
  /// successor read is current, so the successor is a live node and the
  /// value re-read under the lock is self-justifying (any live node
  /// storing Val *is* the set's Val node). Without the NodePtr check, a
  /// block recycled into an in-flight insert could pass the alive +
  /// value tests on its not-yet-published state and the unlink below
  /// would corrupt both lists' incarnations.
  bool lockNextAtValue(Node *NodePtr, SetKey Val,
                       typename Reclaim::Guard &G)
      VBL_TRY_ACQUIRE(true, NodePtr->NodeLock) {
    const bool Ok = NodePtr->NodeLock.template acquireIfValid<Policy>(
        NodePtr, [&] {
          if (Policy::readCheck(NodePtr->Deleted,
                                std::memory_order_acquire, NodePtr,
                                MemField::Marked))
            return false;
          Node *Succ = Policy::readCheck(NodePtr->Next,
                                         std::memory_order_acquire,
                                         NodePtr, MemField::Next);
          if constexpr (Versioned) {
            if (!Domain.validAt(NodePtr, G.version()))
              return false;
            return Policy::readCheck(Succ->Val, std::memory_order_acquire,
                                     Succ, MemField::Val) == Val;
          } else {
            return Policy::readValueCheck(Succ->Val, Succ) == Val;
          }
        });
    // The §3.1 value-based validation rejecting a schedule is the event
    // the whole observability layer exists to count.
    if (!Ok)
      stats::bump(stats::Counter::ListValueValidationAborts);
    return Ok;
  }

  Node *Head;
  Node *Tail;
  /// Mutable so the const, read-only contains() can enter a read-side
  /// critical section.
  mutable Reclaim Domain;
};

} // namespace vbl

#endif // VBL_CORE_VBLLIST_H
