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
/// Known husk case: a chunk whose slots are all dirty (FirstClean ==
/// ChunkKeys) and whose occupancy is zero survives until a later insert
/// routed to it compacts it away; unlink is attempted eagerly by the
/// emptying remove but is best-effort.
///
/// Template knobs: ChunkKeys (1 recovers a flat VBL-like list and is
/// the bench ablation baseline; 7 fills one 64-byte key line; 15 two),
/// ReclaimT and PolicyT exactly as in VblList, and Adaptive.
///
/// Adaptive chunking (Adaptive = true): the compile-time K becomes an
/// upper bound and the list reshapes online from two stats-layer
/// signals. Contention (the events behind chunk.validation_aborts) is
/// tracked per chunk in a Heat counter; a hot chunk is split at the
/// median even when its keys would fit one chunk, so the keys that
/// contend land behind different locks (small effective K where writers
/// collide). Occupancy (the hist.chunk_occupancy signal, sampled on
/// every structural-path lock acquisition) drives the opposite move: a
/// cold half-empty chunk is merged with its successor when the union
/// fits, restoring large effective K on read-mostly runs. Both moves
/// piggyback on the existing freeze-and-replace protocol — lock in
/// list order, mark the victim(s), swing the predecessor's link, retire
/// through the domain — so no new protocol states exist; a merge simply
/// freezes two adjacent chunks (both marked before the one swing)
/// instead of one. Replacement chunks start cold (Heat = 0), which is
/// also the hysteresis: a chunk must re-earn its heat before it splits
/// again, and a merge is refused while the chunk is hot.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_CORE_VBLCHUNKLIST_H
#define VBL_CORE_VBLCHUNKLIST_H

#include "analysis/QuiescentChain.h"
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
          class PolicyT = DirectPolicy, bool Adaptive = false>
class VblChunkList
    : public analysis::QuiescentChain<
          VblChunkList<ChunkKeys, ReclaimT, PolicyT, Adaptive>> {
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
    /// Contention estimate for adaptive reshaping: bumped (lossy,
    /// single CAS attempt) when an operation's lock-held validation of
    /// this chunk aborts. Advisory only — never part of a correctness
    /// decision — and reset to zero on VBR revival. Unused (always 0)
    /// when Adaptive is off; it shares the header padding either way.
    std::atomic<uint32_t> Heat{0};
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
  /// True when this instantiation reshapes chunks online (hot splits,
  /// cold merges); exposed so tests and describe strings can branch.
  static constexpr bool AdaptiveShapes = Adaptive;
  /// Heat at which a chunk is considered contended: structural inserts
  /// split it at the median even when the keys would fit one chunk, and
  /// merges refuse it. Validation aborts are rare in healthy schedules,
  /// so a small absolute count already marks a genuine hot spot.
  static constexpr uint32_t HotSplitThreshold = 4;
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
    for (;;) {
      auto [Pred, Curr] = route(Key, G);
      (void)Pred;
      if (Curr == Head) {
        // Below every anchor: splice a fresh singleton chunk after the
        // head sentinel (the head never stores keys, so no existing
        // chunk can legally receive a key under its anchor).
        if (spliceAfterHead(Key))
          return true;
        Policy::onRestart();
        continue;
      }
      // Optimistic phase: version probe first so the scan can double as
      // the lock's validation (ChunkLock fast path), then liveness,
      // then the data decision.
      const uint64_t Seen =
          Curr->Lock.template optimisticVersion<Policy>(Curr);
      if (Policy::read(Curr->Marked, std::memory_order_acquire, Curr,
                       MemField::Marked)) {
        Policy::onRestart();
        continue;
      }
      const uint64_t Occ = Policy::read(
          Curr->Occ, std::memory_order_acquire, &Curr->Occ, MemField::Marked);
      const int Found = scanFor(Curr, Occ, Key);
      if constexpr (Versioned) {
        // The Marked/Occ/slot reads above may be of a revived block: the
        // lock's version fast path cannot catch cross-incarnation reuse
        // on its own (the freelist round trip performs no lock traffic),
        // so certify the incarnation before trusting the scan or handing
        // Seen to the fast path.
        if (!Domain.validAt(Curr, G.version())) {
          G.refresh();
          Policy::onRestart();
          continue;
        }
      }
      if (Found >= 0)
        return false; // Present: decided from data alone, no lock taken.
      if constexpr (Adaptive) {
        // A contended chunk skips the single-lock fast path: the
        // structural path splits it at the median so the colliding keys
        // end up behind different locks (small effective K where it
        // hurts). The replacement halves start cold.
        if (heatOf(Curr) >= HotSplitThreshold) {
          const int Out = structuralInsert(Key, G);
          if (Out >= 0)
            return Out != 0;
          Policy::onRestart();
          continue;
        }
      }
      bool FoundUnderLock = false;
      const bool Locked = Curr->Lock.template acquireIfValidSince<Policy>(
          Curr, Seen, [&] {
            if (Policy::readCheck(Curr->Marked, std::memory_order_acquire,
                                  Curr, MemField::Marked))
              return false;
            const uint64_t O =
                Policy::readCheck(Curr->Occ, std::memory_order_acquire,
                                  &Curr->Occ, MemField::Marked);
            const int FoundHere = scanForCheck(Curr, O, Key);
            if constexpr (Versioned) {
              // Birth last: only a certified incarnation's scan may
              // produce the authoritative "present" answer below.
              if (!Domain.validAt(Curr, G.version()))
                return false;
            }
            if (FoundHere >= 0) {
              FoundUnderLock = true;
              return false;
            }
            return true;
          });
      if (!Locked) {
        if (FoundUnderLock)
          return false; // Value validation decided "present" — no retry.
        stats::bump(stats::Counter::ChunkValidationAborts);
        noteContention(Curr);
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

  /// Removes \p Key; true iff it was present. Never locks when the key
  /// is absent. An emptied chunk is unlinked best-effort.
  bool remove(SetKey Key) {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    for (;;) {
      auto [Pred, Curr] = route(Key, G);
      if (Curr == Head)
        return false; // Below every anchor: absent at the route's read.
      const uint64_t Seen =
          Curr->Lock.template optimisticVersion<Policy>(Curr);
      // Liveness must be read between probe and acquire, exactly like
      // insert: the lock's fast path only certifies facts observed
      // after the probe. Without this read, a fresh probe on a chunk
      // frozen just before it takes the fast path and clears a slot in
      // the retired copy while the replacement keeps the key — a lost
      // remove.
      if (Policy::read(Curr->Marked, std::memory_order_acquire, Curr,
                       MemField::Marked)) {
        Policy::onRestart();
        continue;
      }
      const uint64_t Occ = Policy::read(
          Curr->Occ, std::memory_order_acquire, &Curr->Occ, MemField::Marked);
      int Slot = scanFor(Curr, Occ, Key);
      if constexpr (Versioned) {
        // Same incarnation certification as insert: the absent answer
        // and the probe version are only meaningful for the chunk the
        // route certified, not a revived reuse of its block.
        if (!Domain.validAt(Curr, G.version())) {
          G.refresh();
          Policy::onRestart();
          continue;
        }
      }
      if (Slot < 0)
        return false; // Absent: decided from data alone, no lock taken.
      bool AbsentUnderLock = false;
      uint64_t OccHeld = Occ;
      const bool Locked = Curr->Lock.template acquireIfValidSince<Policy>(
          Curr, Seen, [&] {
            if (Policy::readCheck(Curr->Marked, std::memory_order_acquire,
                                  Curr, MemField::Marked))
              return false;
            OccHeld =
                Policy::readCheck(Curr->Occ, std::memory_order_acquire,
                                  &Curr->Occ, MemField::Marked);
            Slot = scanForCheck(Curr, OccHeld, Key);
            if constexpr (Versioned) {
              // Birth last, before the scan's result is trusted.
              if (!Domain.validAt(Curr, G.version()))
                return false;
            }
            if (Slot < 0) {
              AbsentUnderLock = true;
              return false;
            }
            return true;
          });
      if (!Locked) {
        if (AbsentUnderLock)
          return false; // Live chunk covering Key lacks it: authoritative.
        stats::bump(stats::Counter::ChunkValidationAborts);
        noteContention(Curr);
        Policy::onRestart();
        continue;
      }
      const uint64_t NewOcc = OccHeld & ~(uint64_t{1} << Slot);
      Policy::write(Curr->Occ, NewOcc, std::memory_order_release,
                    &Curr->Occ, MemField::Marked);
      Curr->Lock.template release<Policy>(Curr);
      if (NewOcc == 0) {
        tryUnlinkEmpty(Pred, Curr, G);
      } else if constexpr (Adaptive) {
        // Cold-compaction trigger: a quarter-full chunk (or a singleton,
        // which is pure pointer overhead at any K) with no recent
        // contention folds into its successor when the union fits —
        // read-mostly sparse runs drift back toward large effective K.
        // Quarter, not half: split fires at full, so merging anything
        // denser re-creates near-full chunks that the next insert
        // splits again — at the harness's steady-state density of 1/2 a
        // half-full trigger thrashes split/merge on every other update.
        const unsigned Pop = static_cast<unsigned>(std::popcount(NewOcc));
        if ((Pop == 1 || 4 * Pop <= ChunkKeys) &&
            heatOf(Curr) < HotSplitThreshold)
          tryMergeWithNext(Pred, Curr, G);
      }
      return true;
    }
  }

  /// Wait-free membership test: anchors route, one occupancy snapshot
  /// and the published slots decide. No locks, no version retries.
  /// Under VBR the walk and the final scan re-validate birth epochs and
  /// retry on a stale incarnation, trading wait-freedom for immediate
  /// block reuse (the lock-free-but-not-wait-free VBR read protocol).
  bool contains(SetKey Key) const {
    VBL_ASSERT(isUserKey(Key), "sentinel keys are reserved");
    typename Reclaim::Guard G(Domain);
    if constexpr (Versioned) {
      for (;;) {
        auto [Pred, Curr] = route(Key, G);
        (void)Pred;
        const uint64_t Occ =
            Policy::read(Curr->Occ, std::memory_order_acquire, &Curr->Occ,
                         MemField::Marked);
        const int Found = scanFor(Curr, Occ, Key);
        if (Domain.validAt(Curr, G.version()))
          return Found >= 0;
        G.refresh();
        Policy::onRestart();
      }
    } else {
      auto [Pred, Curr] = route(Key, G);
      (void)Pred;
      const uint64_t Occ = Policy::read(
          Curr->Occ, std::memory_order_acquire, &Curr->Occ, MemField::Marked);
      return scanFor(Curr, Occ, Key) >= 0;
    }
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
        collectInRange(C, Occ, Lo, Hi, Out);
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

  /// Anchor routing: returns (Pred, Curr) with Pred->Next observed ==
  /// Curr and Anchor(Curr) <= Key < Anchor of Curr's successor at the
  /// reads. Pred is null exactly when Curr is the head sentinel (Key is
  /// below every anchor). Wait-free in the non-versioned domains:
  /// anchors are immutable and the walk only follows Next pointers
  /// forward. Under VBR every hop reads the candidate's anchor and next
  /// pointer FIRST and certifies its birth epoch AFTER — a revival
  /// publishes the new birth before any new field value, so a passing
  /// check retroactively validates both reads — and a stale incarnation
  /// restarts the walk from the never-retired head with a refreshed
  /// version.
  std::pair<Chunk *, Chunk *> route(SetKey Key,
                                    typename Reclaim::Guard &G) const {
    if constexpr (Versioned) {
      for (;;) {
        Chunk *Pred = nullptr;
        Chunk *Curr = Head;
        Chunk *Next = Policy::read(Curr->Next, std::memory_order_acquire,
                                   Curr, MemField::Next);
        uint64_t Hops = 0;
        bool Stale = false;
        for (;;) {
          const SetKey A = readAnchor(Next);
          Chunk *After = Policy::read(Next->Next, std::memory_order_acquire,
                                      Next, MemField::Next);
          if (!Domain.validAt(Next, G.version())) {
            Stale = true;
            break;
          }
          if (A > Key)
            break;
          Pred = Curr;
          Curr = Next;
          Next = After;
          ++Hops;
        }
        stats::noteTraversal(Hops);
        if (!Stale) {
          if constexpr (!Policy::Traced)
            VBL_PREFETCH(&Curr->Keys[0]);
          return {Pred, Curr};
        }
        G.refresh();
        Policy::onRestart();
      }
    } else {
      (void)G;
      Chunk *Pred = nullptr;
      Chunk *Curr = Head;
      Chunk *Next = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                                 MemField::Next);
      uint64_t Hops = 0; // Accumulated locally; one stats call at the end.
      while (Policy::readValue(Next->Anchor, Next) <= Key) {
        Pred = Curr;
        Curr = Next;
        Next = Policy::read(Curr->Next, std::memory_order_acquire, Curr,
                            MemField::Next);
        // Pull the chunk-after-next's header line while this anchor is
        // compared. Direct mode only: traced runs must not perform an
        // extra scheduler-invisible shared read.
        if constexpr (!Policy::Traced)
          VBL_PREFETCH(Next->Next.load(std::memory_order_relaxed));
        ++Hops;
      }
      // The routed chunk's key lines are about to be scanned; start the
      // fetch under the final anchor compare.
      if constexpr (!Policy::Traced)
        VBL_PREFETCH(&Curr->Keys[0]);
      stats::noteTraversal(Hops);
      return {Pred, Curr};
    }
  }

  /// Slot-read order. Non-versioned: relaxed — published slots are
  /// write-once and the Occ acquire that exposed the bit orders the
  /// slot store, so a relaxed read returns the one value the slot will
  /// ever hold. Versioned: acquire — a revival rewrites slots in place,
  /// so the read must pair with the reviver's release store for the
  /// trailing birth check to certify it.
  static constexpr std::memory_order SlotReadOrder =
      Versioned ? std::memory_order_acquire : std::memory_order_relaxed;

  /// Slot index in \p C holding \p Key among the set bits of \p Occ, or
  /// -1.
  int scanFor(const Chunk *C, uint64_t Occ, SetKey Key) const {
    uint64_t Bits = Occ;
    while (Bits) {
      const int I = std::countr_zero(Bits);
      Bits &= Bits - 1;
      if (Policy::read(C->Keys[static_cast<size_t>(I)], SlotReadOrder,
                       &C->Keys[static_cast<size_t>(I)],
                       MemField::Val) == Key)
        return I;
    }
    return -1;
  }

  /// Optimistic-scan retry budget before rangeQuery downgrades to the
  /// per-chunk lock fallback.
  static constexpr unsigned ScanMaxRetries = 3;

  /// Appends the published keys of \p C that fall inside [Lo, Hi]
  /// (slot reads in scanFor flavour: part of an optimistic read).
  void collectInRange(const Chunk *C, uint64_t Occ, SetKey Lo, SetKey Hi,
                      std::vector<SetKey> &Out) const {
    uint64_t Bits = Occ;
    while (Bits) {
      const int I = std::countr_zero(Bits);
      Bits &= Bits - 1;
      const SetKey K =
          Policy::read(C->Keys[static_cast<size_t>(I)], SlotReadOrder,
                       &C->Keys[static_cast<size_t>(I)], MemField::Val);
      if (K >= Lo && K <= Hi)
        Out.push_back(K);
    }
  }

  /// Range-scan fallback: collect each window chunk's keys under its
  /// own lock, hand-over-chunk. Only per-chunk atomicity (every key is
  /// read under a lock, so per-key linearizability holds — the same
  /// guarantee contains() gives). The anchor cursor makes restarts
  /// (frozen chunk found at acquire time) re-route without duplicating
  /// keys already committed: a chunk's keys are all >= its anchor, and
  /// the cursor only advances to anchors of fully collected successors.
  //
  // Suppressed: the loop acquires and releases chunk locks through a
  // moving pointer, which the analysis cannot name lexically.
  size_t lockedScan(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out,
                    typename Reclaim::Guard &G) const
      VBL_NO_THREAD_SAFETY_ANALYSIS {
    const size_t Entry = Out.size();
    SetKey Cursor = Lo;
    uint64_t Chunks = 0;
    for (bool Done = false; !Done;) {
      auto [Pred, C] = route(Cursor, G);
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
        uint64_t Bits = Occ;
        while (Bits) {
          const int I = std::countr_zero(Bits);
          Bits &= Bits - 1;
          const SetKey K = Policy::readCheck(
              C->Keys[static_cast<size_t>(I)], SlotReadOrder,
              &C->Keys[static_cast<size_t>(I)], MemField::Val);
          if (K >= Cursor && K <= Hi)
            Out.push_back(K);
        }
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
        Cursor = NextAnchor > Cursor ? NextAnchor : Cursor;
        C = Next;
      }
    }
    stats::noteTraversal(Chunks);
    return Out.size() - Entry;
  }

  /// scanFor in validation flavour (under the chunk lock; the schedule
  /// exporter drops readCheck accesses when projecting onto LL).
  int scanForCheck(const Chunk *C, uint64_t Occ, SetKey Key) const {
    uint64_t Bits = Occ;
    while (Bits) {
      const int I = std::countr_zero(Bits);
      Bits &= Bits - 1;
      if (Policy::readCheck(C->Keys[static_cast<size_t>(I)], SlotReadOrder,
                            &C->Keys[static_cast<size_t>(I)],
                            MemField::Val) == Key)
        return I;
    }
    return -1;
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
          // No constructor runs, so the previous incarnation's contention
          // heat is cleared by hand: a revived chunk starts cold (also
          // the hysteresis that keeps a just-split chunk from immediately
          // splitting again).
          Policy::write(C->Heat, uint32_t{0}, std::memory_order_release,
                        &C->Heat, MemField::Val);
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
    if (!Pred->Lock.template acquireIfValidSince<Policy>(
            Pred, ChunkLock::InvalidVersion, [&] {
              if (Policy::readCheck(Pred->Marked,
                                    std::memory_order_acquire, Pred,
                                    MemField::Marked))
                return false;
              const bool Linked =
                  Policy::readCheck(Pred->Next, std::memory_order_acquire,
                                    Pred, MemField::Next) == Curr;
              if constexpr (Versioned) {
                // Pred could be a recycled block mid-revival as an
                // unpublished chunk whose next happens to equal Curr;
                // writing through it would corrupt the reviver. Pin the
                // incarnation the route certified (birth read last).
                if (!Domain.validAt(Pred, G.version()))
                  return false;
              }
              return Linked;
            })) {
      stats::bump(stats::Counter::ChunkValidationAborts);
      return -1;
    }
    // Under Pred's lock with Pred->Next == Curr, Curr cannot be frozen
    // (its freezer must hold this same Pred lock), so acquiring it only
    // waits out single-chunk inserts/removes.
    bool FoundUnderLock = false;
    uint64_t OccAtAcquire = 0;
    if (!Curr->Lock.template acquireIfValidSince<Policy>(
            Curr, ChunkLock::InvalidVersion, [&] {
              if (Policy::readCheck(Curr->Marked,
                                    std::memory_order_acquire, Curr,
                                    MemField::Marked))
                return false;
              const uint64_t O =
                  Policy::readCheck(Curr->Occ, std::memory_order_acquire,
                                    &Curr->Occ, MemField::Marked);
              const int FoundHere = scanForCheck(Curr, O, Key);
              if constexpr (Versioned) {
                // Curr's anchor justified the placement at route time;
                // only that incarnation may answer for Key's range.
                if (!Domain.validAt(Curr, G.version()))
                  return false;
              }
              if (FoundHere >= 0) {
                FoundUnderLock = true;
                return false;
              }
              OccAtAcquire = O;
              return true;
            })) {
      Pred->Lock.template release<Policy>(Pred);
      if (FoundUnderLock)
        return 0;
      stats::bump(stats::Counter::ChunkValidationAborts);
      noteContention(Curr);
      return -1;
    }
    // Every structural-path lock acquisition samples the chunk's
    // population, so long-stable chunks keep reporting steady-state
    // occupancy even when the path below returns without freezing (the
    // freeze-time Occ equals this sample: Occ only changes under the
    // lock we now hold).
    stats::histogramAdd(
        stats::Histogram::ChunkOccupancy,
        static_cast<uint64_t>(std::popcount(OccAtAcquire)));
    const bool Hot = Adaptive && heatOf(Curr) >= HotSplitThreshold;
    const uint32_t FC =
        Policy::readCheck(Curr->FirstClean, std::memory_order_relaxed,
                          &Curr->FirstClean, MemField::Marked);
    if (FC < ChunkKeys && !Hot) {
      // A slot opened between our single-lock attempt and here.
      storeSlot(Curr, FC, Key);
      Curr->Lock.template release<Policy>(Curr);
      Pred->Lock.template release<Policy>(Pred);
      return 1;
    }
    // Freeze and replace. Gather the live keys plus Key, sorted.
    const uint64_t O = Policy::readCheck(
        Curr->Occ, std::memory_order_relaxed, &Curr->Occ, MemField::Marked);
    std::array<SetKey, ChunkKeys + 1> All;
    size_t Total = 0;
    uint64_t Bits = O;
    while (Bits) {
      const int I = std::countr_zero(Bits);
      Bits &= Bits - 1;
      std::atomic<SetKey> &Slot = Curr->Keys[static_cast<size_t>(I)];
      All[Total++] = Policy::readCheck(Slot, std::memory_order_relaxed,
                                       &Slot, MemField::Val);
    }
    All[Total++] = Key;
    sortGathered(All, Total);
    Chunk *NextC = Policy::readCheck(Curr->Next, std::memory_order_acquire,
                                     Curr, MemField::Next);
    Chunk *Replacement;
    if (Total <= ChunkKeys && !(Hot && Total >= 2)) {
      // Dead slots made room: one compacted copy. A hot chunk refuses
      // the compaction (unless it holds a single key) and splits below
      // instead — that is the adaptive small-K move.
      Replacement = buildChunk(rawAnchor(Curr), All.data(), Total, NextC);
      stats::bump(stats::Counter::ChunkCompactions);
    } else {
      // Genuinely full (or hot): split at the median; the upper half's
      // anchor is its own least key (strictly above the lower half's).
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
    (void)G;
    if (!Pred->Lock.template acquireIfValidSince<Policy>(
            Pred, ChunkLock::InvalidVersion, [&] {
              if (Policy::readCheck(Pred->Marked,
                                    std::memory_order_acquire, Pred,
                                    MemField::Marked))
                return false;
              const bool Linked =
                  Policy::readCheck(Pred->Next, std::memory_order_acquire,
                                    Pred, MemField::Next) == Curr;
              if constexpr (Versioned) {
                // Same hazard as structuralInsert: exclude a block that
                // was recycled into an unpublished chunk whose next
                // pointer coincidentally equals Curr.
                if (!Domain.validAt(Pred, G.version()))
                  return false;
              }
              return Linked;
            }))
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

  /// Advisory contention heat of a chunk (adaptive builds only). Read
  /// without any lock: the value only steers shape decisions, never
  /// correctness, so a stale read is harmless.
  uint32_t heatOf(const Chunk *C) const {
    if constexpr (!Adaptive) {
      (void)C;
      return 0;
    } else {
      return Policy::read(C->Heat, std::memory_order_acquire, &C->Heat,
                          MemField::Val);
    }
  }

  /// Records a validation abort against \p C with a single, non-looping
  /// CAS. A lost race simply drops the sample — heat is a lossy counter
  /// and under-counting only delays the hot-split decision. Saturates at
  /// 2x the threshold so a long-hot chunk's word stops being written.
  void noteContention(Chunk *C) {
    if constexpr (Adaptive) {
      uint32_t Seen = Policy::read(C->Heat, std::memory_order_acquire,
                                   &C->Heat, MemField::Val);
      if (Seen >= 2 * HotSplitThreshold)
        return;
      (void)Policy::casStrong(C->Heat, Seen, Seen + 1,
                              std::memory_order_acq_rel, &C->Heat,
                              MemField::Val);
    } else {
      (void)C;
    }
  }

  /// Best-effort merge of a cold, underfull chunk with its successor:
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
    (void)G;
    if (!Pred->Lock.template acquireIfValidSince<Policy>(
            Pred, ChunkLock::InvalidVersion, [&] {
              if (Policy::readCheck(Pred->Marked,
                                    std::memory_order_acquire, Pred,
                                    MemField::Marked))
                return false;
              const bool Linked =
                  Policy::readCheck(Pred->Next, std::memory_order_acquire,
                                    Pred, MemField::Next) == Curr;
              if constexpr (Versioned) {
                // Same hazard as tryUnlinkEmpty: exclude a block recycled
                // into an unpublished chunk whose next pointer
                // coincidentally equals Curr.
                if (!Domain.validAt(Pred, G.version()))
                  return false;
              }
              return Linked;
            })) {
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
    for (Chunk *Src : {Curr, NextC}) {
      uint64_t Bits = Src == Curr ? OccCurr : OccNext;
      while (Bits) {
        const int I = std::countr_zero(Bits);
        Bits &= Bits - 1;
        std::atomic<SetKey> &Slot = Src->Keys[static_cast<size_t>(I)];
        All[Total++] = Policy::readCheck(Slot, std::memory_order_relaxed,
                                         &Slot, MemField::Val);
      }
    }
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
