//===- core/VblChunkList.h - Unrolled VBL: cache-line chunked nodes ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unrolled VBL list: an ordered set whose nodes ("chunks") each
/// hold up to ChunkKeys keys in a cache-line-aligned array behind one
/// versioned chunk lock, an occupancy bitmap and an immutable min-key
/// anchor. The flat VBL list pays one cache miss per key on the
/// dominant traversal path; here a traversal reads one header line per
/// *chunk* (anchor + next pointer) and touches key lines only in the
/// single chunk the search key routes to.
///
/// The paper's value-aware discipline survives the layout change by
/// moving from node granularity to chunk granularity:
///
///  - `contains` is wait-free and lock-free end to end: route by
///    anchors (immutable), snapshot the routed chunk's occupancy word
///    (acquire), read the published slots (each slot is *write-once*:
///    written before its occupancy bit is released, never rewritten, so
///    a published value is immutable and an unlocked read of it is
///    never torn or stale).
///  - `insert`/`remove` decide "already present" / "already absent"
///    from that same unlocked scan and return without ever locking —
///    the chunk reading of the schedules Fig. 2 shows the Lazy list
///    rejecting needlessly.
///  - Updates that do mutate lock only the routed chunk and validate by
///    value at commit time: ChunkLock's version fast path proves the
///    optimistic scan is still current, and otherwise the key's
///    presence/absence is re-derived from the chunk's *data* under the
///    lock (never from node identity).
///  - Overflow (no clean slot) freezes the chunk — Harris-style mark
///    under the (pred, chunk) locks — and replaces it with one
///    compacted chunk or a two-way split; an emptied chunk is marked
///    and unlinked the same way. Chunks are never mutated in place
///    structurally: readers that already entered a frozen chunk finish
///    against its immutable final content (the lazy-list marked-node
///    argument, lifted to a fat node).
///
/// Deadlock freedom: every multi-lock acquisition takes (pred, chunk)
/// in list order, and anchors — the order — are immutable.
///
/// Sorted batches (applyBatchSorted) run the same per-op cores as
/// insert/remove/contains under one reclaim guard, and carry a cursor —
/// the chunk the previous op routed to — from op to op: the paper's
/// restart-from-prev at chunk granularity (resume() says why a cursor
/// chunk read unmarked is a valid place to start a route).
///
/// Known husk case: a chunk whose slots are all dirty (FirstClean ==
/// ChunkKeys) and whose occupancy is zero survives until a later insert
/// routed to it compacts it away; unlink is attempted eagerly by the
/// emptying remove but is best-effort.
///
/// Template knobs: ChunkKeys (1 recovers a flat VBL-like list and is
/// the bench ablation baseline; 7 fills one 64-byte key line; 15 two),
/// and ReclaimT and PolicyT exactly as in VblList.
///
/// Shape policy, the same for every instantiation: an insert into a
/// chunk with no clean slot compacts it (when its live keys plus the
/// new one fit) or splits it at the median; a remove that empties a
/// chunk unlinks it; and a remove that leaves a chunk a quarter full or
/// holding one key merges it with its successor when the union fits
/// (tryMergeWithNext), so sparse runs drift back toward dense key
/// lines. Every move is the same freeze-and-replace step — lock in list
/// order, mark the victim(s), swing the predecessor's link, retire
/// through the domain — and a merge simply freezes two adjacent chunks
/// (both marked before the one swing) instead of one.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_CORE_VBLCHUNKLIST_H
#define VBL_CORE_VBLCHUNKLIST_H

#include "analysis/QuiescentChain.h"
#include "core/BatchOp.h"
#include "core/ChunkLock.h"
#include "core/SetConfig.h"
#include "reclaim/EpochDomain.h"
#include "reclaim/NodePool.h"
#include "reclaim/VbrDomain.h"
#include "stats/Stats.h"
#include "support/ThreadSafety.h"
#include "sync/Policy.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace vbl {

template <unsigned ChunkKeys = 7, class ReclaimT = reclaim::EpochDomain,
          class PolicyT = DirectPolicy>
class VblChunkList
    : public analysis::QuiescentChain<
          VblChunkList<ChunkKeys, ReclaimT, PolicyT>> {
  static_assert(ChunkKeys >= 1 && ChunkKeys <= 63,
                "the occupancy bitmap is one 64-bit word");

  /// Version-based reclamation: chunks are revived in place, so anchors
  /// become atomic, the routing walk and every optimistic data decision
  /// re-validate the chunk's birth epoch, and the lock validators pin
  /// the incarnation the route certified. ChunkLock versions are type-
  /// stable across incarnations (freeze and unlink both bump them under
  /// the lock), so the version fast path alone can only skip validation
  /// within one incarnation — the pre-lock birth check below closes the
  /// probe-of-recycled-chunk window.
  static constexpr bool Versioned = reclaim::IsVersionedDomain<ReclaimT>;

  struct alignas(CacheLineBytes) Chunk {
    explicit Chunk(SetKey Anchor) : Anchor(Anchor) {}

    /// Immutable min-key bound: every key stored here is >= Anchor and
    /// < the successor's Anchor. Routing compares only anchors, so a
    /// traversal touches one header line per chunk. Immutable per
    /// incarnation; atomic under VBR where a revival overwrites it.
    std::conditional_t<Versioned, std::atomic<SetKey>, const SetKey> Anchor;
    std::atomic<Chunk *> Next{nullptr};
    /// Harris-style logical delete of the whole chunk: set under the
    /// chunk lock when the chunk is frozen (replaced or unlinked). A
    /// marked chunk's Keys/Occ never change again.
    std::atomic<bool> Marked{false};
    /// First never-used slot. Slots are consumed in index order and are
    /// write-once: written before their Occ bit is published, never
    /// rewritten. Mutated only under Lock.
    std::atomic<uint32_t> FirstClean{0};
    /// Occupancy bitmap: bit i published (release) after Keys[i] is
    /// written, cleared (release) by remove. The one word unlocked
    /// scans snapshot.
    std::atomic<uint64_t> Occ{0};
    ChunkLock Lock;
    /// Keys on their own cache line(s): the routing loop never pulls
    /// them, the final scan reads one line per 8 keys.
    alignas(CacheLineBytes) std::array<std::atomic<SetKey>, ChunkKeys> Keys{};
  };

  static_assert(sizeof(Chunk) <= reclaim::NodePool::MaxBlockBytes,
                "chunks must stay poolable; shrink ChunkKeys");
  static_assert(alignof(Chunk) == CacheLineBytes,
                "chunk headers must be line-aligned for the pool's slabs");

public:
  using Reclaim = ReclaimT;
  using Policy = PolicyT;

  static constexpr unsigned KeysPerChunk = ChunkKeys;
  /// Exposed so the NodePool tests can assert the size-class mapping of
  /// real chunk shapes without re-deriving the layout.
  static constexpr size_t ChunkBytes = sizeof(Chunk);
  static constexpr size_t ChunkAlignment = alignof(Chunk);

  /// A chunk-granularity freeze mark, and the marker swings the link
  /// itself. A frozen chunk's content is immutable, so describing it
  /// mid-freeze is safe; its keys transiently flow nowhere until the
  /// replacement is swung in, which is why the per-step uniqueness
  /// clause is "at most one".
  static constexpr analysis::FlowTraits Flow{.IsChunked = true};

  VblChunkList() {
    // Under VBR sentinels need slab headers too: route() runs validAt on
    // every chunk it certifies, Tail included. A fresh domain stamps
    // birth zero, so sentinel certification never fails.
    Tail = makeChunk(MaxSentinel);
    Head = makeChunk(MinSentinel);
    Head->Next.store(Tail, std::memory_order_relaxed);
  }

  ~VblChunkList() {
    // Reachable chunks are freed here; frozen chunks were retired and
    // are freed (or deliberately leaked) by the domain's destructor.
    Chunk *Curr = Head;
    while (Curr) {
      Chunk *Next = Curr->Next.load(std::memory_order_relaxed);
      reclaim::domainDispose<Policy>(Domain, Curr);
      Curr = Next;
    }
  }

  VblChunkList(const VblChunkList &) = delete;
  VblChunkList &operator=(const VblChunkList &) = delete;

  /// Adds \p Key; true iff it was absent. Never locks when the key is
  /// already present (the value-aware rule, at chunk granularity).
  bool insert(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    Cursor At = headCursor();
    return insertCore(Key, At, G);
  }

  /// Removes \p Key; true iff it was present. Never locks when the key
  /// is absent. An emptied chunk is unlinked best-effort.
  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    Cursor At = headCursor();
    return removeCore(Key, At, G);
  }

  /// Wait-free membership test: anchors route, one occupancy snapshot
  /// and the published slots decide. No locks, no version retries.
  /// Under VBR the walk and the final scan re-validate birth epochs and
  /// retry on a stale incarnation, trading wait-freedom for immediate
  /// block reuse (the lock-free-but-not-wait-free VBR read protocol).
  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    Cursor At = headCursor();
    return containsCore(Key, At, G);
  }

  /// Applies \p N point ops, given as pointers in ascending-key order
  /// (same-key ops in submission order; see applySortedPointOps), under
  /// ONE reclaim guard. Each op routes from the chunk the previous op
  /// routed to — restart-from-prev at chunk granularity — whenever an
  /// acquire re-read finds that chunk unmarked, and from the head
  /// otherwise (see resume()). B sorted ops over an n-chunk list cost
  /// roughly one n-hop pass plus B in-chunk decisions instead of B full
  /// routes. The per-op protocol is the one insert/remove/contains run:
  /// they share the same cores. Under VBR every op routes from the head
  /// and only the shared guard is amortized, as in VblList.
  void applyBatchSorted(BatchOp *const *Ops, size_t N) {
    typename Reclaim::Guard G(Domain);
    Cursor At = headCursor();
    applySortedPointOps(
        Ops, N, [&](SetKey Key) { return insertCore(Key, At, G); },
        [&](SetKey Key) { return removeCore(Key, At, G); },
        [&](SetKey Key) { return containsCore(Key, At, G); });
  }

  /// Linearizable range scan: appends every key in [Lo, Hi] to \p Out,
  /// sorted, and returns how many were appended.
  ///
  /// Optimistic protocol (see DESIGN.md "Multi-chunk scan windows"):
  /// route to the chunk covering Lo (the head sentinel when Lo is below
  /// every anchor — a concurrent spliceAfterHead commits under the
  /// head's lock, so the head's version must be part of the window),
  /// then per chunk record the seqlock version, check liveness, collect
  /// the published slots, and advance until the successor's anchor
  /// exceeds Hi. Afterwards re-validate the whole window with
  /// ChunkLock::readValidate: every structural change that can move a
  /// key across [Lo, Hi] — slot publish/clear, freeze-and-replace,
  /// unlink, splice — commits under the lock of some window chunk, so
  /// an all-even, all-unchanged window proves the collect equals the
  /// window's content at the moment of its last read (the scan's
  /// linearization point). A failed probe, a frozen chunk or a version
  /// change retries (scan.retries); after ScanMaxRetries the scan
  /// finishes under per-chunk locks instead (scan.fallbacks), which
  /// keeps per-key linearizability and uses an anchor cursor to neither
  /// duplicate nor drop keys across lock hand-offs.
  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) const {
    VBL_ASSERT(isUserKey(Lo) && isUserKey(Hi),
               "sentinel keys are reserved");
    if (Lo > Hi)
      return 0;
    typename Reclaim::Guard G(Domain);
    const size_t Entry = Out.size();
    std::vector<std::pair<const Chunk *, uint64_t>> Window;
    for (unsigned Attempt = 0; Attempt < ScanMaxRetries; ++Attempt) {
      Out.resize(Entry);
      Window.clear();
      bool Fail = false;
      bool Stale = false;
      auto [Pred, Start] = route(Lo, G);
      (void)Pred;
      const Chunk *C = Start;
      for (;;) {
        const uint64_t V = C->Lock.template optimisticVersion<Policy>(C);
        if (V == ChunkLock::InvalidVersion) {
          Fail = true;
          break;
        }
        if (Policy::read(C->Marked, std::memory_order_acquire, C,
                         MemField::Marked)) {
          Fail = true;
          break;
        }
        const uint64_t Occ =
            Policy::read(C->Occ, std::memory_order_acquire, &C->Occ,
                         MemField::Marked);
        const size_t Base = Out.size();
        forEachSlot<false>(C, Occ, [&](SetKey K) {
          if (K >= Lo && K <= Hi)
            Out.push_back(K);
          return false;
        });
        const Chunk *Next = Policy::read(C->Next,
                                         std::memory_order_acquire, C,
                                         MemField::Next);
        const SetKey NextAnchor = readAnchor(Next);
        if constexpr (Versioned) {
          // Certify both incarnations the hop trusted: C's content reads
          // and Next's anchor (revivals publish birth before fields).
          if (!Domain.validAt(C, G.version()) ||
              !Domain.validAt(Next, G.version())) {
            Stale = true;
            break;
          }
        }
        // Slots are append-ordered; chunk ranges are disjoint and
        // increasing, so a chunk-local sort yields a global order.
        std::sort(Out.begin() + static_cast<ptrdiff_t>(Base), Out.end());
        Window.emplace_back(C, V);
        if (NextAnchor > Hi)
          break;
        C = Next;
      }
      if (!Fail && !Stale) {
        // Whole-window revalidation: all validates run after the last
        // collect, so success pins every chunk's content at that point.
        for (const auto &[WC, WV] : Window)
          if (!WC->Lock.template readValidate<Policy>(WV, WC)) {
            Fail = true;
            break;
          }
        if (!Fail) {
          stats::noteTraversal(Window.size());
          return Out.size() - Entry;
        }
      }
      if constexpr (Versioned) {
        if (Stale)
          G.refresh();
      }
      stats::bump(stats::Counter::ScanRetries);
      Policy::onRestart();
    }
    stats::bump(stats::Counter::ScanFallbacks);
    Out.resize(Entry);
    return lockedScan(Lo, Hi, Out, G);
  }

  //===--------------------------------------------------------------===//
  // Test and tooling support (not part of the concurrent hot path).
  //===--------------------------------------------------------------===//

  /// Chunks between the sentinels; quiescent use only (tests assert on
  /// split/unlink structure).
  size_t chunkCountSlow() const { return this->nodeChain().size() - 2; }

  Reclaim &reclaimDomain() { return Domain; }

  /// The quiescent walk (analysis/QuiescentChain.h): one description
  /// per chunk, anchor as the key, the set Occ bits as occupied slots.
  template <class Visit> void describeChain(Visit &&V) const {
    analysis::FlowNodeDesc D;
    D.IsChunk = true;
    D.Capacity = ChunkKeys;
    for (const Chunk *Curr = Head; Curr;
         Curr = Curr->Next.load(std::memory_order_relaxed)) {
      D.Node = Curr;
      D.Key = rawAnchor(Curr);
      D.Marked = Curr->Marked.load(std::memory_order_relaxed);
      D.Locked = Curr->Lock.isLocked();
      D.FirstClean = Curr->FirstClean.load(std::memory_order_relaxed);
      D.Slots.clear();
      for (uint64_t Bits = Curr->Occ.load(std::memory_order_relaxed); Bits;
           Bits &= Bits - 1) {
        const auto I = static_cast<uint32_t>(std::countr_zero(Bits));
        D.Slots.push_back({I, Curr->Keys[I].load(std::memory_order_relaxed)});
      }
      if (!V(D))
        return;
    }
  }

private:
  /// The routed chunk's anchor, read on the unlocked walk. Versioned
  /// mode mediates the atomic with acquire so a passing birth check
  /// afterwards certifies the value via the revival release chain.
  static SetKey readAnchor(const Chunk *C) {
    if constexpr (Versioned)
      return Policy::read(C->Anchor, std::memory_order_acquire, C,
                          MemField::Val);
    else
      return Policy::readValue(C->Anchor, C);
  }

  /// readAnchor in validation flavour (under a chunk lock).
  static SetKey readAnchorCheck(const Chunk *C) {
    if constexpr (Versioned)
      return Policy::readCheck(C->Anchor, std::memory_order_acquire, C,
                               MemField::Val);
    else
      return Policy::readValueCheck(C->Anchor, C);
  }

  /// Quiescent / under-lock anchor read with no policy event.
  static SetKey rawAnchor(const Chunk *C) {
    if constexpr (Versioned)
      return C->Anchor.load(std::memory_order_relaxed);
    else
      return C->Anchor;
  }

  /// A routed position: Curr is the chunk a route ended at, Pred the
  /// chunk it came through (null exactly when Curr is the head
  /// sentinel). A sorted batch carries one across its ops, so Pred may
  /// be stale by the time it is used: every user re-validates it under
  /// its lock (tryUnlinkEmpty, tryMergeWithNext) or re-routes
  /// (structuralInsert).
  struct Cursor {
    Chunk *Pred;
    Chunk *Curr;
  };

  Cursor headCursor() const { return {nullptr, Head}; }

  /// Where the next route starts: \p At when an acquire re-read finds
  /// its chunk unmarked, else the head. Sound because every path that
  /// takes a chunk out of the list — freeze-and-replace, unlink, merge
  /// — marks it under its lock before the swing, so a chunk read
  /// unmarked is still linked at that read; anchors are immutable, so
  /// walking on from it is the same as a head walk that has just
  /// reached it (the key is at least its anchor: ops arrive in key
  /// order, and a restart keeps its key). The cursor never outlives
  /// the guard its route ran under, so its chunks are not freed under
  /// it. Under VBR a carried chunk may be a revived block, which no
  /// mark read can tell apart, so every route starts at the head.
  Cursor resume(const Cursor &At) const {
    if constexpr (!Versioned) {
      if (At.Curr == Head ||
          !Policy::read(At.Curr->Marked, std::memory_order_acquire, At.Curr,
                        MemField::Marked))
        return At;
    }
    return headCursor();
  }

  /// Anchor routing from the head: see the cursor overload.
  Cursor route(SetKey Key, typename Reclaim::Guard &G) const {
    return route(Key, headCursor(), G);
  }

  /// Anchor routing from \p From (the head, or a resume()d cursor whose
  /// anchor is <= Key): returns (Pred, Curr) with Anchor(Curr) <= Key <
  /// Anchor of Curr's successor at the reads. When the walk advances,
  /// Pred->Next was observed == Curr; when it does not, Pred is
  /// From.Pred. Pred is null exactly when Curr is the head sentinel
  /// (Key is below every anchor). The list's one hop loop: wait-free in
  /// the non-versioned domains, where anchors are immutable and the
  /// walk only follows Next pointers forward.
  ///
  /// VBR mode (always from the head): every hop reads the candidate's
  /// anchor and next pointer FIRST and certifies its birth epoch AFTER
  /// — a revival publishes the new birth before any new field value, so
  /// a passing check retroactively validates both reads — and a stale
  /// incarnation restarts the walk from the never-retired head with a
  /// refreshed version.
  Cursor route(SetKey Key, Cursor From,
               [[maybe_unused]] typename Reclaim::Guard &G) const {
    if constexpr (Versioned)
      VBL_ASSERT(From.Curr == Head, "VBR routes start at the head");
    for (;;) {
      auto [Pred, Curr] = From;
      Chunk *Next = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                                 MemField::Next);
      uint64_t Hops = 0; // Accumulated locally; one stats call at the end.
      for (;;) {
        const SetKey A = readAnchor(Next);
        Chunk *After = nullptr;
        if constexpr (Versioned) {
          After = Policy::read(Next->Next, std::memory_order_acquire, Next,
                               MemField::Next);
          if (!Domain.validAt(Next, G.version()))
            break; // Recycled under us: restart from the head.
        }
        if (A > Key) {
          // The routed chunk's key lines are about to be scanned; start
          // the fetch under the final anchor compare.
          if constexpr (!Policy::Traced)
            VBL_PREFETCH(&Curr->Keys[0]);
          stats::noteTraversal(Hops);
          return {Pred, Curr};
        }
        Pred = Curr;
        Curr = Next;
        if constexpr (Versioned) {
          Next = After;
        } else {
          Next = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                              MemField::Next);
          // Pull the chunk-after-next's header line while this anchor is
          // compared. Direct mode only: traced runs must not perform an
          // extra scheduler-invisible shared read.
          if constexpr (!Policy::Traced)
            VBL_PREFETCH(Next->Next.load(std::memory_order_relaxed));
        }
        ++Hops;
      }
      // Only a VBR birth reject leaves the hop loop.
      stats::noteTraversal(Hops);
      if constexpr (Versioned)
        G.refresh();
      Policy::onRestart();
    }
  }

  //===--------------------------------------------------------------===//
  // Operation cores: the per-op protocol loops with the reclaim guard
  // and the route's start hoisted out, shared by the single-op entry
  // points (a fresh head cursor) and applyBatchSorted (one cursor
  // carried across the batch). Every attempt routes from resume(At)
  // and leaves its route in At, so a restart, like the next op of a
  // batch, resumes from the chunk the failed attempt routed to while
  // that chunk is unmarked.
  //===--------------------------------------------------------------===//

  bool insertCore(SetKey Key, Cursor &At, typename Reclaim::Guard &G) {
    for (;;) {
      At = route(Key, resume(At), G);
      Chunk *Curr = At.Curr;
      if (Curr == Head) {
        // Below every anchor: splice a fresh singleton chunk after the
        // head sentinel (the head never stores keys, so no existing
        // chunk can legally receive a key under its anchor).
        if (spliceAfterHead(Key))
          return true;
        Policy::onRestart();
        continue;
      }
      Reading R;
      if (!lockForUpdate(Curr, Key, /*Remove=*/false, R, G)) {
        if (R.Decided)
          return false; // Present: decided from data, nothing written.
        Policy::onRestart();
        continue;
      }
      // Locked, key absent, chunk live and still covering Key (anchors
      // of a live chunk's successor never decrease).
      const uint32_t FC =
          Policy::readCheck(Curr->FirstClean, std::memory_order_relaxed,
                            &Curr->FirstClean, MemField::Marked);
      if (FC < ChunkKeys) {
        storeSlot(Curr, FC, Key);
        Curr->Lock.template release<Policy>(Curr);
        return true;
      }
      // No clean slot: structural path (freeze and replace), which must
      // take the predecessor's lock first — release and redo as a pair.
      Curr->Lock.template release<Policy>(Curr);
      const int Out = structuralInsert(Key, G);
      if (Out >= 0)
        return Out != 0;
      Policy::onRestart();
    }
  }

  bool removeCore(SetKey Key, Cursor &At, typename Reclaim::Guard &G) {
    for (;;) {
      At = route(Key, resume(At), G);
      auto [Pred, Curr] = At;
      if (Curr == Head)
        return false; // Below every anchor: absent at the route's read.
      Reading R;
      if (!lockForUpdate(Curr, Key, /*Remove=*/true, R, G)) {
        if (R.Decided)
          return false; // Absent: decided from data, nothing written.
        Policy::onRestart();
        continue;
      }
      const uint64_t NewOcc = R.Occ & ~(uint64_t{1} << R.Slot);
      Policy::write(Curr->Occ, NewOcc, std::memory_order_release,
                    &Curr->Occ, MemField::Marked);
      Curr->Lock.template release<Policy>(Curr);
      if (NewOcc == 0) {
        tryUnlinkEmpty(Pred, Curr, G);
      } else if constexpr (ChunkKeys > 1) {
        // Merge trigger (K > 1 only: at K=1 a remove always empties its
        // chunk): a quarter-full chunk (or a singleton, which is pure
        // pointer overhead at any K) folds into its successor when the
        // union fits — sparse runs drift back toward large effective K.
        // Quarter, not half: split fires at full, so merging anything
        // denser re-creates near-full chunks that the next insert
        // splits again — at the harness's steady-state density of 1/2 a
        // half-full trigger thrashes split/merge on every other update.
        const unsigned Pop = static_cast<unsigned>(std::popcount(NewOcc));
        if (Pop == 1 || 4 * Pop <= ChunkKeys)
          tryMergeWithNext(Pred, Curr, G);
      }
      return true;
    }
  }

  bool containsCore(SetKey Key, Cursor &At,
                    typename Reclaim::Guard &G) const {
    for (;;) {
      At = route(Key, resume(At), G);
      Chunk *Curr = At.Curr;
      const uint64_t Occ = Policy::read(
          Curr->Occ, std::memory_order_acquire, &Curr->Occ, MemField::Marked);
      const int Found = scanFor(Curr, Occ, Key);
      if constexpr (Versioned) {
        if (!Domain.validAt(Curr, G.version())) {
          G.refresh();
          Policy::onRestart();
          continue;
        }
      }
      return Found >= 0;
    }
  }

  /// An update's reading of its routed chunk: the occupancy word and
  /// Key's slot in it (-1 when absent) as its last scan saw them, and
  /// whether that scan answered the op with no write to make.
  struct Reading {
    uint64_t Occ = 0;
    int Slot = -1;
    bool Decided = false;
  };

  /// The value-aware rule at chunk granularity, shared by insert
  /// (\p Remove false: the op writes only if Key is absent) and remove
  /// (the op writes only if Key is present). Optimistic phase: version
  /// probe first, so the scan can double as the lock's validation
  /// (ChunkLock fast path), then liveness, then the data decision —
  /// an answer already known from data returns without ever locking.
  /// Then the under-lock decision (lockIfUndecided). Same three
  /// outcomes as that: locked (true), decided (false, R.Decided) or
  /// retry (false).
  bool lockForUpdate(Chunk *C, SetKey Key, bool Remove, Reading &R,
                     typename Reclaim::Guard &G)
      VBL_TRY_ACQUIRE(true, C->Lock) {
    const uint64_t Seen = C->Lock.template optimisticVersion<Policy>(C);
    // Liveness must be read between probe and acquire: the lock's fast
    // path only certifies facts observed after the probe. Without this
    // read, a fresh probe on a chunk frozen just before it takes the
    // fast path and writes into the retired copy — for a remove, a slot
    // cleared there while the replacement keeps the key (a lost remove).
    if (Policy::read(C->Marked, std::memory_order_acquire, C,
                     MemField::Marked))
      return false;
    R.Occ = Policy::read(C->Occ, std::memory_order_acquire, &C->Occ,
                         MemField::Marked);
    R.Slot = scanFor(C, R.Occ, Key);
    if constexpr (Versioned) {
      // The Marked/Occ/slot reads above may be of a revived block: the
      // lock's version fast path cannot catch cross-incarnation reuse
      // on its own (the freelist round trip performs no lock traffic),
      // so certify the incarnation before trusting the scan or handing
      // Seen to the fast path.
      if (!Domain.validAt(C, G.version())) {
        G.refresh();
        return false;
      }
    }
    R.Decided = (R.Slot >= 0) != Remove;
    if (R.Decided)
      return false;
    return lockIfUndecided(C, Seen, Key, Remove, R, G);
  }

  /// The one under-lock decision of a single-key update (insert,
  /// remove, structural insert): takes \p C's lock, keeps it with no
  /// further read while the version is still \p Seen (the optimistic
  /// scan in \p R then doubles as the validation; InvalidVersion
  /// forces the re-check), and otherwise re-derives Key's presence from
  /// C's data — never from node identity. Three outcomes:
  ///  - true: locked; C is live and the op has to write. \p R holds the
  ///    occupancy and Key's slot as read under the lock (or, on the
  ///    fast path, the optimistic reading it came in with).
  ///  - false with R.Decided (which must be false on entry): the live
  ///    chunk's data answers the op (Key present for an insert, absent
  ///    for a remove); nothing to write.
  ///  - false otherwise: C was frozen or, under VBR, is no longer the
  ///    incarnation the route certified; the caller retries
  ///    (chunk.validation_aborts).
  bool lockIfUndecided(Chunk *C, uint64_t Seen, SetKey Key, bool Remove,
                       Reading &R,
                       [[maybe_unused]] typename Reclaim::Guard &G)
      VBL_TRY_ACQUIRE(true, C->Lock) {
    const bool Locked =
        C->Lock.template acquireIfValidSince<Policy>(C, Seen, [&] {
          if (Policy::readCheck(C->Marked, std::memory_order_acquire, C,
                                MemField::Marked))
            return false;
          R.Occ = Policy::readCheck(C->Occ, std::memory_order_acquire,
                                    &C->Occ, MemField::Marked);
          R.Slot = scanFor<true>(C, R.Occ, Key);
          if constexpr (Versioned) {
            // Birth last: C's anchor justified the placement at route
            // time, so only that incarnation's scan may answer for
            // Key's range.
            if (!Domain.validAt(C, G.version()))
              return false;
          }
          R.Decided = (R.Slot >= 0) != Remove;
          return !R.Decided;
        });
    if (!Locked && !R.Decided)
      stats::bump(stats::Counter::ChunkValidationAborts);
    return Locked;
  }

  /// Slot-read order. Non-versioned: relaxed — published slots are
  /// write-once and the Occ acquire that exposed the bit orders the
  /// slot store, so a relaxed read returns the one value the slot will
  /// ever hold. Versioned: acquire — a revival rewrites slots in place,
  /// so the read must pair with the reviver's release store for the
  /// trailing birth check to certify it.
  static constexpr std::memory_order SlotReadOrder =
      Versioned ? std::memory_order_acquire : std::memory_order_relaxed;

  /// The one loop over a chunk's occupied slots: reads the key of each
  /// slot whose bit is set in \p Occ, in slot order, and hands it to
  /// \p Visit until Visit returns true; returns that slot's index, or
  /// -1. \p UnderLock picks the read's flavour: Policy::readCheck under
  /// the chunk lock (the schedule exporter drops those when projecting
  /// onto LL), Policy::read for the unlocked reads an optimistic
  /// decision rests on. \p Order is the read's memory order.
  template <bool UnderLock, std::memory_order Order = SlotReadOrder,
            class VisitFn>
  static int forEachSlot(const Chunk *C, uint64_t Occ, VisitFn &&Visit) {
    for (uint64_t Bits = Occ; Bits; Bits &= Bits - 1) {
      const int I = std::countr_zero(Bits);
      const std::atomic<SetKey> &Slot = C->Keys[static_cast<size_t>(I)];
      const SetKey K =
          UnderLock ? Policy::readCheck(Slot, Order, &Slot, MemField::Val)
                    : Policy::read(Slot, Order, &Slot, MemField::Val);
      if (Visit(K))
        return I;
    }
    return -1;
  }

  /// Slot index in \p C holding \p Key among the set bits of \p Occ, or
  /// -1.
  template <bool UnderLock = false>
  static int scanFor(const Chunk *C, uint64_t Occ, SetKey Key) {
    return forEachSlot<UnderLock>(C, Occ,
                                  [Key](SetKey K) { return K == Key; });
  }

  /// Optimistic-scan retry budget before rangeQuery downgrades to the
  /// per-chunk lock fallback.
  static constexpr unsigned ScanMaxRetries = 3;

  /// Range-scan fallback: collect each window chunk's keys under its
  /// own lock, hand-over-chunk. Only per-chunk atomicity (every key is
  /// read under a lock, so per-key linearizability holds — the same
  /// guarantee contains() gives). The anchor floor ScanFrom makes
  /// restarts (frozen chunk found at acquire time) re-route without
  /// duplicating keys already committed: a chunk's keys are all >= its
  /// anchor, and ScanFrom only advances to anchors of fully collected
  /// successors.
  //
  // Suppressed: the loop acquires and releases chunk locks through a
  // moving pointer, which the analysis cannot name lexically.
  size_t lockedScan(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out,
                    typename Reclaim::Guard &G) const
      VBL_NO_THREAD_SAFETY_ANALYSIS {
    const size_t Entry = Out.size();
    SetKey ScanFrom = Lo;
    uint64_t Chunks = 0;
    for (bool Done = false; !Done;) {
      auto [Pred, C] = route(ScanFrom, G);
      (void)Pred;
      bool Restart = false;
      while (!Done && !Restart) {
        if (!C->Lock.template acquireIfValidSince<Policy>(
                C, ChunkLock::InvalidVersion, [&] {
                  if (Policy::readCheck(C->Marked,
                                        std::memory_order_acquire, C,
                                        MemField::Marked))
                    return false;
                  if constexpr (Versioned) {
                    // Pin the incarnation the route (or the previous
                    // hop's successor read) certified.
                    if (!Domain.validAt(C, G.version()))
                      return false;
                  }
                  return true;
                })) {
          stats::bump(stats::Counter::ChunkValidationAborts);
          if constexpr (Versioned)
            G.refresh();
          Policy::onRestart();
          Restart = true;
          break;
        }
        const uint64_t Occ =
            Policy::readCheck(C->Occ, std::memory_order_acquire, &C->Occ,
                              MemField::Marked);
        const size_t Base = Out.size();
        forEachSlot<true>(C, Occ, [&](SetKey K) {
          if (K >= ScanFrom && K <= Hi)
            Out.push_back(K);
          return false;
        });
        std::sort(Out.begin() + static_cast<ptrdiff_t>(Base), Out.end());
        // Under C's lock, Next is C's genuine successor and cannot be
        // frozen (its freezer needs this lock), so its anchor is
        // trustworthy without further certification.
        Chunk *Next = Policy::readCheck(C->Next,
                                        std::memory_order_acquire, C,
                                        MemField::Next);
        const SetKey NextAnchor = rawAnchor(Next);
        C->Lock.template release<Policy>(C);
        ++Chunks;
        if (NextAnchor > Hi) {
          Done = true;
          break;
        }
        ScanFrom = NextAnchor > ScanFrom ? NextAnchor : ScanFrom;
        C = Next;
      }
    }
    stats::noteTraversal(Chunks);
    return Out.size() - Entry;
  }

  /// Writes \p Key into clean slot \p FC of locked chunk \p C and
  /// publishes it: slot first (plain), then its Occ bit (release) — the
  /// edge every unlocked scan acquires. The caller must hold C's chunk
  /// lock (slot consumption mutates FirstClean).
  void storeSlot(Chunk *C, uint32_t FC, SetKey Key) VBL_REQUIRES(C->Lock) {
    Policy::write(C->Keys[FC], Key, PrePublishOrder, &C->Keys[FC],
                  MemField::Val);
    const uint64_t O = Policy::readCheck(C->Occ, std::memory_order_relaxed,
                                         &C->Occ, MemField::Marked);
    Policy::write(C->Occ, O | (uint64_t{1} << FC), std::memory_order_release,
                  &C->Occ, MemField::Marked);
    Policy::write(C->FirstClean, FC + 1, std::memory_order_relaxed,
                  &C->FirstClean, MemField::Marked);
  }

  /// Pre-publication initialisation order. Non-versioned domains rely
  /// on the publishing swing's release to order plain stores; under VBR
  /// a stale traversal can reach a revived block through a frozen next
  /// pointer before the swing, so every revival store must itself be a
  /// release behind the freshly stamped birth epoch.
  static constexpr std::memory_order PrePublishOrder =
      Versioned ? std::memory_order_release : std::memory_order_relaxed;

  /// Allocates a raw chunk for \p Anchor (reclaim::domainCreate). A
  /// recycled VBR block gets its anchor and mark release-stored over the
  /// previous incarnation, behind the birth stamp allocBlockFor just
  /// published; its lock word and slab header stay as they are.
  Chunk *makeChunk(SetKey Anchor) {
    return reclaim::domainCreate<Chunk, Policy>(
        Domain, Anchor, [Anchor](auto *C) {
          Policy::write(C->Anchor, Anchor, std::memory_order_release, C,
                        MemField::Val);
          Policy::write(C->Marked, false, std::memory_order_release, C,
                        MemField::Marked);
        });
  }

  /// Sorts the first \p N keys gathered from locked chunks. Insertion
  /// sort is what std::sort itself runs on 16 or fewer keys (every
  /// registered chunk shape); spelled out because GCC's -Warray-bounds
  /// misreads std::sort's 16-element threshold on shorter buffers.
  template <size_t Cap>
  static void sortGathered(std::array<SetKey, Cap> &Keys, size_t N) {
    for (size_t I = 1; I < N; ++I) {
      const SetKey K = Keys[I];
      size_t J = I;
      for (; J != 0 && Keys[J - 1] > K; --J)
        Keys[J] = Keys[J - 1];
      Keys[J] = K;
    }
  }

  /// Builds an unpublished chunk: \p N sorted keys, all published
  /// locally (plain stores — the publishing swing's release orders them
  /// for every later reader; release stores under VBR, see
  /// PrePublishOrder), linked to \p NextC.
  Chunk *buildChunk(SetKey Anchor, const SetKey *Ks, size_t N,
                    Chunk *NextC) {
    Chunk *C = makeChunk(Anchor);
    for (size_t I = 0; I < N; ++I)
      Policy::write(C->Keys[I], Ks[I], PrePublishOrder, &C->Keys[I],
                    MemField::Val);
    Policy::write(C->FirstClean, static_cast<uint32_t>(N),
                  PrePublishOrder, &C->FirstClean, MemField::Marked);
    Policy::write(C->Occ, N == 0 ? 0 : (uint64_t{1} << N) - 1,
                  PrePublishOrder, &C->Occ, MemField::Marked);
    Policy::write(C->Next, NextC, PrePublishOrder, C, MemField::Next);
    return C;
  }

  /// Key below every anchor: splice a singleton chunk between the head
  /// sentinel and its successor. Value-validated under the head's lock
  /// (the successor may be a different chunk than routed — only its
  /// anchor must still exceed Key). False => re-route.
  bool spliceAfterHead(SetKey Key) {
    const bool Ok = Head->Lock.template acquireIfValidSince<Policy>(
        Head, ChunkLock::InvalidVersion, [&] {
          Chunk *First = Policy::readCheck(
              Head->Next, std::memory_order_acquire, Head, MemField::Next);
          // No birth check needed even under VBR: the head sentinel is
          // never retired, so First is its genuine current successor —
          // a live chunk whose anchor read is current by construction.
          return readAnchorCheck(First) > Key;
        });
    if (!Ok) {
      stats::bump(stats::Counter::ChunkValidationAborts);
      return false;
    }
    Chunk *First = Policy::readCheck(Head->Next, std::memory_order_acquire,
                                     Head, MemField::Next);
    Chunk *Fresh = buildChunk(Key, &Key, 1, First);
    Policy::write(Head->Next, Fresh, std::memory_order_release, Head,
                  MemField::Next);
    Head->Lock.template release<Policy>(Head);
    return true;
  }

  /// Locks \p Pred for a structural change to its successor (freeze,
  /// unlink or merge), keeping the lock only if Pred is unmarked and
  /// still links to \p Curr. Under VBR Pred's birth is read last: Pred
  /// could be a recycled block mid-revival as an unpublished chunk whose
  /// next happens to equal Curr, and writing through it would corrupt
  /// the reviver, so the check pins the incarnation the route certified.
  bool lockPredLinkedTo(Chunk *Pred, Chunk *Curr,
                        [[maybe_unused]] typename Reclaim::Guard &G)
      VBL_TRY_ACQUIRE(true, Pred->Lock) {
    return Pred->Lock.template acquireIfValidSince<Policy>(
        Pred, ChunkLock::InvalidVersion, [&] {
          if (Policy::readCheck(Pred->Marked, std::memory_order_acquire,
                                Pred, MemField::Marked))
            return false;
          const bool Linked =
              Policy::readCheck(Pred->Next, std::memory_order_acquire, Pred,
                                MemField::Next) == Curr;
          if constexpr (Versioned) {
            if (!Domain.validAt(Pred, G.version()))
              return false;
          }
          return Linked;
        });
  }

  /// Insert when the routed chunk has no clean slot: lock (pred, chunk)
  /// in list order, re-decide from data, then either use a slot that a
  /// concurrent remove freed up, or freeze the chunk and replace it
  /// with a compacted copy (live keys + Key still fit) or a two-way
  /// split (chunk genuinely full). Returns 1 inserted, 0 present,
  /// -1 retry.
  int structuralInsert(SetKey Key, typename Reclaim::Guard &G) {
    auto [Pred, Curr] = route(Key, G);
    if (Curr == Head)
      return spliceAfterHead(Key) ? 1 : -1;
    if (!lockPredLinkedTo(Pred, Curr, G)) {
      stats::bump(stats::Counter::ChunkValidationAborts);
      return -1;
    }
    // Under Pred's lock with Pred->Next == Curr, Curr cannot be frozen
    // (its freezer must hold this same Pred lock), so acquiring it only
    // waits out single-chunk inserts/removes.
    Reading R;
    if (!lockIfUndecided(Curr, ChunkLock::InvalidVersion, Key,
                         /*Remove=*/false, R, G)) {
      Pred->Lock.template release<Policy>(Pred);
      return R.Decided ? 0 : -1;
    }
    // Every structural-path lock acquisition samples the chunk's
    // population, so long-stable chunks keep reporting steady-state
    // occupancy even when the path below returns without freezing (the
    // freeze-time Occ equals this sample: Occ only changes under the
    // lock we now hold).
    stats::histogramAdd(stats::Histogram::ChunkOccupancy,
                        static_cast<uint64_t>(std::popcount(R.Occ)));
    const uint32_t FC =
        Policy::readCheck(Curr->FirstClean, std::memory_order_relaxed,
                          &Curr->FirstClean, MemField::Marked);
    if (FC < ChunkKeys) {
      // A slot opened between our single-lock attempt and here.
      storeSlot(Curr, FC, Key);
      Curr->Lock.template release<Policy>(Curr);
      Pred->Lock.template release<Policy>(Pred);
      return 1;
    }
    // Freeze and replace. Gather the live keys plus Key, sorted. R.Occ
    // was read under the lock we still hold, so it is the final Occ.
    std::array<SetKey, ChunkKeys + 1> All;
    size_t Total = 0;
    forEachSlot<true, std::memory_order_relaxed>(
        Curr, R.Occ, [&](SetKey K) {
          All[Total++] = K;
          return false;
        });
    All[Total++] = Key;
    sortGathered(All, Total);
    Chunk *NextC = Policy::readCheck(Curr->Next, std::memory_order_acquire,
                                     Curr, MemField::Next);
    Chunk *Replacement;
    if (Total <= ChunkKeys) {
      // Dead slots made room: one compacted copy.
      Replacement = buildChunk(rawAnchor(Curr), All.data(), Total, NextC);
      stats::bump(stats::Counter::ChunkCompactions);
    } else {
      // Genuinely full: split at the median; the upper half's anchor is
      // its own least key (strictly above the lower half's).
      const size_t Mid = Total / 2;
      Chunk *Upper = buildChunk(All[Mid], All.data() + Mid, Total - Mid,
                                NextC);
      Replacement = buildChunk(rawAnchor(Curr), All.data(), Mid, Upper);
      stats::bump(stats::Counter::ChunkSplits);
    }
    // Freeze: mark, then swing. Readers already inside Curr finish
    // against its immutable final content.
    Policy::write(Curr->Marked, true, std::memory_order_release, Curr,
                  MemField::Marked);
    Policy::write(Pred->Next, Replacement, std::memory_order_release, Pred,
                  MemField::Next);
    Curr->Lock.template release<Policy>(Curr);
    Pred->Lock.template release<Policy>(Pred);
    reclaim::domainRetire<Policy>(Domain, Curr);
    return 1;
  }

  /// Best-effort unlink of a chunk the caller just emptied: lock
  /// (pred, chunk) in list order, revalidate (still linked, still
  /// empty), mark and unlink. Any failed validation simply gives up —
  /// an empty unmarked chunk is legal and a later insert compacts it.
  void tryUnlinkEmpty(Chunk *Pred, Chunk *Curr, typename Reclaim::Guard &G) {
    if (!lockPredLinkedTo(Pred, Curr, G))
      return;
    // No birth check on Curr even under VBR: with Pred certified live,
    // locked and linked to Curr, Curr is its genuine current successor
    // (unlinking it requires this same Pred lock). Whichever incarnation
    // that is, "successor of Pred with zero occupancy" is exactly the
    // state the unlink below is correct for.
    if (!Curr->Lock.template acquireIfValidSince<Policy>(
            Curr, ChunkLock::InvalidVersion, [&] {
              return Policy::readCheck(Curr->Occ,
                                       std::memory_order_acquire,
                                       &Curr->Occ, MemField::Marked) == 0;
            })) {
      Pred->Lock.template release<Policy>(Pred);
      return;
    }
    Chunk *NextC = Policy::readCheck(Curr->Next, std::memory_order_acquire,
                                     Curr, MemField::Next);
    stats::histogramAdd(stats::Histogram::ChunkOccupancy, 0);
    Policy::write(Curr->Marked, true, std::memory_order_release, Curr,
                  MemField::Marked);
    Policy::write(Pred->Next, NextC, std::memory_order_release, Pred,
                  MemField::Next);
    Curr->Lock.template release<Policy>(Curr);
    Pred->Lock.template release<Policy>(Pred);
    stats::bump(stats::Counter::ChunkUnlinks);
    reclaim::domainRetire<Policy>(Domain, Curr);
  }

  /// Best-effort merge of an underfull chunk with its successor:
  /// lock (pred, chunk, next) in list order, revalidate that the merged
  /// population still fits one chunk, then freeze BOTH sources and swing
  /// pred to a single combined replacement anchored at Curr's anchor.
  /// Both marks precede the one swing, so each source is marked when
  /// last reachable (flow clause F6); two frozen-but-reachable chunks in
  /// between is legal — F5 only bounds unmarked holders per key. Any
  /// failed validation gives up: an underfull chunk is legal and a later
  /// remove retries.
  void tryMergeWithNext(Chunk *Pred, Chunk *Curr,
                        typename Reclaim::Guard &G) {
    if (!lockPredLinkedTo(Pred, Curr, G)) {
      stats::bump(stats::Counter::ChunkValidationAborts);
      return;
    }
    // No birth check on Curr even under VBR (see tryUnlinkEmpty): with
    // Pred locked and linked to Curr, whichever incarnation Curr is,
    // "successor of Pred whose population is small" is exactly the state
    // the merge below is correct for.
    uint64_t OccCurr = 0;
    if (!Curr->Lock.template acquireIfValidSince<Policy>(
            Curr, ChunkLock::InvalidVersion, [&] {
              OccCurr = Policy::readCheck(Curr->Occ,
                                          std::memory_order_acquire,
                                          &Curr->Occ, MemField::Marked);
              // Same quarter-or-singleton rule as the trigger: a chunk
              // refilled past it since the probe no longer wants folding.
              const unsigned Pop =
                  static_cast<unsigned>(std::popcount(OccCurr));
              return Pop != 0 && (Pop == 1 || 4 * Pop <= ChunkKeys);
            })) {
      Pred->Lock.template release<Policy>(Pred);
      return;
    }
    stats::histogramAdd(
        stats::Histogram::ChunkOccupancy,
        static_cast<uint64_t>(std::popcount(OccCurr)));
    // Under Curr's lock its successor is stable (freezing it would need
    // this lock), so NextC is the genuine current neighbour.
    Chunk *NextC = Policy::readCheck(Curr->Next, std::memory_order_acquire,
                                     Curr, MemField::Next);
    if (NextC == Tail) {
      Curr->Lock.template release<Policy>(Curr);
      Pred->Lock.template release<Policy>(Pred);
      return;
    }
    uint64_t OccNext = 0;
    if (!NextC->Lock.template acquireIfValidSince<Policy>(
            NextC, ChunkLock::InvalidVersion, [&] {
              OccNext = Policy::readCheck(NextC->Occ,
                                          std::memory_order_acquire,
                                          &NextC->Occ, MemField::Marked);
              return static_cast<unsigned>(std::popcount(OccCurr)) +
                         static_cast<unsigned>(std::popcount(OccNext)) <=
                     ChunkKeys;
            })) {
      Curr->Lock.template release<Policy>(Curr);
      Pred->Lock.template release<Policy>(Pred);
      return;
    }
    stats::histogramAdd(
        stats::Histogram::ChunkOccupancy,
        static_cast<uint64_t>(std::popcount(OccNext)));
    // Gather both live sets under the locks; the validator bounded the
    // union to one chunk's capacity.
    std::array<SetKey, ChunkKeys> All;
    size_t Total = 0;
    const auto Gather = [&](SetKey K) {
      All[Total++] = K;
      return false;
    };
    forEachSlot<true, std::memory_order_relaxed>(Curr, OccCurr, Gather);
    forEachSlot<true, std::memory_order_relaxed>(NextC, OccNext, Gather);
    sortGathered(All, Total);
    Chunk *NextOfN = Policy::readCheck(
        NextC->Next, std::memory_order_acquire, NextC, MemField::Next);
    Chunk *Replacement =
        buildChunk(rawAnchor(Curr), All.data(), Total, NextOfN);
    // Freeze both sources, then one swing excises the pair.
    Policy::write(Curr->Marked, true, std::memory_order_release, Curr,
                  MemField::Marked);
    Policy::write(NextC->Marked, true, std::memory_order_release, NextC,
                  MemField::Marked);
    Policy::write(Pred->Next, Replacement, std::memory_order_release, Pred,
                  MemField::Next);
    NextC->Lock.template release<Policy>(NextC);
    Curr->Lock.template release<Policy>(Curr);
    Pred->Lock.template release<Policy>(Pred);
    stats::bump(stats::Counter::ChunkMerges);
    reclaim::domainRetire<Policy>(Domain, Curr);
    reclaim::domainRetire<Policy>(Domain, NextC);
  }

  Chunk *Head;
  Chunk *Tail;
  /// Mutable so the const, read-only contains() can enter a read-side
  /// critical section.
  mutable Reclaim Domain;
};

} // namespace vbl

#endif // VBL_CORE_VBLCHUNKLIST_H
