//===- reclaim/NodePool.h - Per-thread size-class node recycler ----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread, size-class slab allocator that closes the loop the
/// reclamation domains leave open: a retired node whose grace period has
/// elapsed goes back to the freeing thread's local free list instead of
/// the global heap, so the next insert on that thread reuses a
/// cache-warm block without a lock or a malloc call. This is the move
/// VBR and GCList (PAPERS.md) get their speedups from — the paper's JVM
/// evaluation had it for free from the garbage collector.
///
/// Structure:
///  - Six size classes, 32..1024 bytes (powers of two). A request is
///    served from class max(roundUpPow2(bytes), align); larger or
///    over-aligned requests go straight to the heap, decided purely by
///    size, so deallocate needs no provenance bit.
///  - Per-thread caches: an intrusive free list per class (the block's
///    first word is the next pointer), capped at CacheCapPerClass
///    blocks. Alloc/free against the cache touch no shared state.
///  - A global pool behind a mutex: refills local caches in
///    TransferBatch chunks, absorbs cache overflow, and receives every
///    cached block when a thread exits (slab donation — nothing is
///    stranded in dead threads' caches). Blocks are carved from 16 KiB
///    *self-aligned* slabs, and the global free state is kept per slab
///    (a donated block masks its way back to its home slab's header).
///    A refill drains partial slabs top down, carving fresh ones once
///    they run out, until it holds a full TransferBatch.
///  - Slabs are cut in address order out of 2 MiB arenas, each
///    self-aligned and advised once with MADV_HUGEPAGE, so under
///    transparent huge pages a whole arena costs one TLB entry. The
///    arena, not the slab, is the unit of locality: however a refill
///    batch spreads over slabs, the nodes built from it share a few
///    arenas, so a traversal over hundreds of thousands of nodes does
///    not pay a page walk per hop. Where the kernel ignores or refuses
///    the advice (THP `never`, no free huge page), the arena sits on
///    4 KiB pages and the pool works unchanged, only without that
///    locality.
///  - The global pool is created with `new` and never destroyed:
///    thread-cache destructors (TLS teardown) may run after any static
///    destructor, and keeping the arena set alive also keeps every
///    block reachable for LeakSanitizer. Arenas are never returned.
///
/// Lifetime safety is entirely the reclamation domains' job: the pool
/// only ever sees a block after the domain's grace period proved no
/// reader holds it. The handshake that makes a recycle race-free is the
/// epoch domain's policy-mediated announcement protocol (see
/// EpochDomain.h); the pool adds one policy-visible edge of its own, a
/// `TransferBeacon` exchanged with release ordering whenever blocks move
/// to the global pool and read with acquire ordering on refill, so the
/// rare cross-thread block migration is also ordered for the
/// happens-before race detector.
///
/// `VBL_POOL_BYPASS` (compile definition, or environment variable at
/// first use, or the ScopedBypass RAII hook) routes every request to
/// plain aligned operator new/delete so AddressSanitizer sees real
/// use-after-free instead of a silently recycled block. Alloc and free
/// must agree on the mode: a ScopedBypass scope must fully contain the
/// lifetime of every object allocated inside it (the benches construct
/// the whole list inside the scope).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_NODEPOOL_H
#define VBL_RECLAIM_NODEPOOL_H

#include "support/Compiler.h"
#include "sync/Policy.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace vbl {
namespace reclaim {

class NodePool {
public:
  /// Smallest block handed out; also the floor of the class ladder. A
  /// block must hold at least the intrusive free-list link.
  static constexpr size_t MinBlockBytes = 32;
  /// Largest pooled block; bigger requests are heap round-trips.
  static constexpr size_t MaxBlockBytes = 1024;
  static constexpr size_t NumClasses = 6; // 32, 64, 128, 256, 512, 1024.
  /// Slab granularity: the unit of per-slab free state and of the
  /// header-masking that finds it.
  static constexpr size_t SlabBytes = 16 * 1024;
  /// Arena granularity requested from the heap: one x86-64 huge page.
  static constexpr size_t ArenaBytes = 2 * 1024 * 1024;
  /// Per-thread, per-class cache bound. Past this, frees overflow to
  /// the global pool so one churning thread cannot hoard every block.
  static constexpr size_t CacheCapPerClass = 128;
  /// Blocks moved per local<->global transfer, amortizing the mutex.
  static constexpr size_t TransferBatch = 32;

  /// Pool-or-heap allocation of \p Bytes with \p Align. Never returns
  /// null (aborts on heap exhaustion like operator new).
  template <class PolicyT = DirectPolicy>
  static void *allocate(size_t Bytes, size_t Align) {
    if (VBL_UNLIKELY(bypassed()))
      return bypassAllocate(Bytes, Align);
    const int Class = classIndexFor(Bytes, Align);
    if (VBL_UNLIKELY(Class < 0))
      return oversizeAllocate(Bytes, Align);
    bool FromGlobal = false;
    void *Ptr = allocateImpl(static_cast<unsigned>(Class), FromGlobal);
    if constexpr (PolicyT::Traced) {
      // Whether a refill pulled pre-owned global blocks depends on
      // process-global cache state that persists across episodes, so a
      // deterministic replay must trace the handshake unconditionally —
      // identical event streams no matter what the pool did.
      (void)PolicyT::read(transferBeacon(), std::memory_order_acquire,
                          &transferBeacon(), MemField::Epoch);
    } else if (VBL_UNLIKELY(FromGlobal)) {
      // Acquire the release-exchange of whichever thread published these
      // blocks, ordering their previous lives before our reuse.
      (void)PolicyT::read(transferBeacon(), std::memory_order_acquire,
                          &transferBeacon(), MemField::Epoch);
    }
    return Ptr;
  }

  /// Returns a block obtained from allocate() with the same size/align.
  template <class PolicyT = DirectPolicy>
  static void deallocate(void *Ptr, size_t Bytes, size_t Align) {
    if (!Ptr)
      return;
    if (VBL_UNLIKELY(bypassed())) {
      bypassDeallocate(Ptr, Bytes, Align);
      return;
    }
    const int Class = classIndexFor(Bytes, Align);
    if (VBL_UNLIKELY(Class < 0)) {
      oversizeDeallocate(Ptr, Bytes, Align);
      return;
    }
    bool ToGlobal = false;
    deallocateImpl(Ptr, static_cast<unsigned>(Class), ToGlobal);
    if constexpr (PolicyT::Traced) {
      // See allocate(): trace the handshake unconditionally so episode
      // replay stays deterministic across pool cache states.
      const uint64_t Seq =
          transferBeacon().load(std::memory_order_relaxed);
      (void)PolicyT::exchange(transferBeacon(), Seq + 1,
                              std::memory_order_acq_rel, &transferBeacon(),
                              MemField::Epoch);
    } else if (VBL_UNLIKELY(ToGlobal)) {
      // Publish everything this thread wrote into the donated blocks
      // before another thread's refill can hand them out again.
      const uint64_t Seq =
          transferBeacon().load(std::memory_order_relaxed);
      (void)PolicyT::exchange(transferBeacon(), Seq + 1,
                              std::memory_order_acq_rel, &transferBeacon(),
                              MemField::Epoch);
    }
  }

  /// True when requests are being routed to plain operator new/delete.
  static bool bypassed();

  /// RAII runtime bypass for tests and the pool-vs-heap benchmarks.
  /// Every object allocated inside the scope must also be destroyed
  /// inside it: the pool keeps no provenance, so a block allocated in
  /// one mode and freed in the other corrupts either the heap or a
  /// free list.
  class ScopedBypass {
  public:
    ScopedBypass();
    ~ScopedBypass();
    ScopedBypass(const ScopedBypass &) = delete;
    ScopedBypass &operator=(const ScopedBypass &) = delete;
  };

  /// Monotonic counters, aggregated over live threads' caches (approximate
  /// while threads run; exact when they have exited) plus the global pool.
  struct Stats {
    uint64_t PoolAllocs = 0;    ///< Fast-path pops from a local free list.
    uint64_t PoolFrees = 0;     ///< Fast-path pushes to a local free list.
    uint64_t SlabsCarved = 0;   ///< 16 KiB slabs carved from arenas.
    uint64_t BlocksDonated = 0; ///< Blocks handed to the global pool.
    uint64_t GlobalRefills = 0; ///< Batch transfers global -> local.
    uint64_t HeapAllocs = 0;    ///< Bypass or oversize operator new calls.
    uint64_t HeapFrees = 0;     ///< Bypass or oversize operator delete calls.
    uint64_t FallbackBlocks = 0; ///< Heap blocks minted under the slab cap.
  };
  static Stats stats();

  /// Bytes of slab memory currently owned by the global pool.
  static size_t liveSlabBytes();

  /// Size-class index serving a (Bytes, Align) request, or -1 when the
  /// request is heap-only (oversize or over-aligned). Public so the VBR
  /// domain's type-stable free lists bucket recycled blocks by the same
  /// ladder the pool carves slabs with.
  static int sizeClassFor(size_t Bytes, size_t Align) {
    return classIndexFor(Bytes, Align);
  }

  /// Test hook: caps slab memory so the exhaustion path (single-block
  /// heap fallback, still recycled through the free lists) is reachable
  /// deterministically. 0 restores "unlimited". Not thread-safe against
  /// concurrent allocation; call from quiescent test code only.
  static void setSlabByteLimitForTest(size_t Limit);

private:
  /// Class index serving (Bytes, Align), or -1 for heap-only requests.
  /// The class size is max(roundUpPow2(Bytes), Align, MinBlockBytes):
  /// slabs are self-aligned and carved at class-size strides (the first
  /// slot holds the slab header), so every block of class >= Align is
  /// Align-aligned.
  static int classIndexFor(size_t Bytes, size_t Align) {
    if (VBL_UNLIKELY(Bytes > MaxBlockBytes || Align > CacheLineBytes))
      return -1;
    size_t Need = Bytes < Align ? Align : Bytes;
    if (Need < MinBlockBytes)
      Need = MinBlockBytes;
    int Class = 0;
    size_t Size = MinBlockBytes;
    while (Size < Need) {
      Size <<= 1;
      ++Class;
    }
    return Class;
  }

  static void *allocateImpl(unsigned Class, bool &FromGlobal);
  static void deallocateImpl(void *Ptr, unsigned Class, bool &ToGlobal);
  static void *bypassAllocate(size_t Bytes, size_t Align);
  static void bypassDeallocate(void *Ptr, size_t Bytes, size_t Align);
  static void *oversizeAllocate(size_t Bytes, size_t Align);
  static void oversizeDeallocate(void *Ptr, size_t Bytes, size_t Align);
  static std::atomic<uint64_t> &transferBeacon();
};

/// Pool-backed replacement for `new T(args...)`. The policy parameter
/// only matters for the rare global-pool transfer edge; hot paths never
/// touch shared state.
template <class T, class PolicyT = DirectPolicy, class... Args>
T *poolCreate(Args &&...A) {
  void *Mem = NodePool::allocate<PolicyT>(sizeof(T), alignof(T));
  return ::new (Mem) T(std::forward<Args>(A)...);
}

/// Pool-backed replacement for `delete Ptr` (null-safe).
template <class PolicyT = DirectPolicy, class T> void poolDestroy(T *Ptr) {
  if (!Ptr)
    return;
  Ptr->~T();
  NodePool::deallocate<PolicyT>(Ptr, sizeof(T), alignof(T));
}

/// Type-erased deleter suitable for Domain::retireRaw: destroys the
/// object and recycles its block on the thread that performs the
/// (grace-period-delayed) free.
template <class T, class PolicyT = DirectPolicy>
void (*poolDeleter())(void *) {
  return +[](void *P) {
    static_cast<T *>(P)->~T();
    NodePool::deallocate<PolicyT>(P, sizeof(T), alignof(T));
  };
}

/// `Domain.retire(Ptr)` with the pool deleter instead of `delete`.
template <class PolicyT = DirectPolicy, class DomainT, class T>
void poolRetire(DomainT &Domain, T *Ptr) {
  Domain.retireRaw(Ptr, poolDeleter<T, PolicyT>());
}

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_NODEPOOL_H
