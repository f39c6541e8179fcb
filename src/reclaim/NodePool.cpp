//===- reclaim/NodePool.cpp - Per-thread size-class node recycler --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "reclaim/NodePool.h"

#include "stats/Stats.h"
#include "support/Compiler.h"

#include <cstdlib>
#include <mutex>
#include <unordered_set>

#include <sys/mman.h>

using namespace vbl;
using namespace vbl::reclaim;

namespace {

/// Intrusive free-list link living in the block's first word. Every
/// pooled class is at least 32 bytes, so the link always fits.
struct FreeBlock {
  FreeBlock *Next;
};

constexpr size_t classSize(unsigned Class) {
  return NodePool::MinBlockBytes << Class;
}

/// Header at the start of every slab, occupying the first block slot of
/// the slab's class (32 bytes fit even the smallest class). Because
/// slabs are SlabBytes-aligned, any block finds its header by masking.
///
/// Keeping each slab's free blocks on the slab's own list — instead of
/// one process-global list per class — is a locality decision, not a
/// bookkeeping one: a global LIFO shuffles blocks from every slab ever
/// carved, so after enough churn a refill hands a thread 32 blocks from
/// 32 slabs all over the address space. Slab-local lists keep a refill
/// batch within the few slabs it drains; slabs carved in sequence share
/// an arena, and under transparent huge pages an arena is one TLB entry.
struct SlabHeader {
  FreeBlock *Free = nullptr;
  SlabHeader *NextPartial = nullptr;
  uint32_t FreeCount = 0;
  uint32_t Class = 0;
  bool InPartialList = false;
};

static_assert(sizeof(SlabHeader) <= NodePool::MinBlockBytes,
              "slab header must fit the smallest block slot");

SlabHeader *slabOf(void *Block) {
  return reinterpret_cast<SlabHeader *>(reinterpret_cast<uintptr_t>(Block) &
                                        ~(NodePool::SlabBytes - 1));
}

void *arenaOf(void *Block) {
  return reinterpret_cast<void *>(reinterpret_cast<uintptr_t>(Block) &
                                  ~(NodePool::ArenaBytes - 1));
}

/// Heap round-trips with the alignment-correct operator new/delete pair
/// (the aligned forms must be matched exactly).
void *alignedNew(size_t Bytes, size_t Align) {
  if (Align > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
    return ::operator new(Bytes, std::align_val_t(Align));
  return ::operator new(Bytes);
}

void alignedDelete(void *Ptr, size_t Align) {
  if (Align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    ::operator delete(Ptr, std::align_val_t(Align));
    return;
  }
  ::operator delete(Ptr);
}

/// Shared pool state. Allocated once and never destroyed: thread-cache
/// destructors run during TLS teardown, which the C++ runtime may order
/// after any static destructor, and the leaked spine keeps every arena
/// (and therefore every block) reachable for LeakSanitizer.
struct GlobalState {
  std::mutex Mutex;
  /// Per-class stack of slabs that still have free blocks. Stack order
  /// means a refill prefers the slab that most recently received frees
  /// — warm pages first.
  SlabHeader *Partial[NodePool::NumClasses] = {};
  /// Exhaustion-minted single blocks (no surrounding slab). Only ever
  /// populated when the test hook caps slab growth.
  FreeBlock *FallbackFree[NodePool::NumClasses] = {};
  /// Arena base pointers; membership distinguishes slab blocks from
  /// fallback blocks on the donation path (a fallback block lies in no
  /// arena, and its masked base must not be dereferenced as a slab).
  std::unordered_set<void *> Arenas;
  /// The uncarved tail of the newest arena; slabs are cut from it in
  /// address order.
  char *ArenaCursor = nullptr;
  char *ArenaEnd = nullptr;
  size_t SlabBytesLive = 0;
  size_t SlabByteLimit = 0; // 0 = unlimited; test hook.
  /// Counters maintained under Mutex, plus the flushed fast-path
  /// counters of threads that have exited.
  uint64_t SlabsCarved = 0;
  uint64_t GlobalRefills = 0;
  uint64_t BlocksDonated = 0;
  uint64_t FallbackBlocks = 0;
  uint64_t DeadPoolAllocs = 0;
  uint64_t DeadPoolFrees = 0;
};

GlobalState &global() {
  static GlobalState *State = new GlobalState();
  return *State;
}

/// Bypass / oversize traffic can run on any thread without a cache, so
/// these two are process-global.
std::atomic<uint64_t> HeapAllocCount{0};
std::atomic<uint64_t> HeapFreeCount{0};

std::atomic<int> &bypassDepth() {
  static std::atomic<int> Depth{0};
  return Depth;
}

void pushPartial(GlobalState &G, SlabHeader *Slab) {
  if (Slab->InPartialList)
    return;
  Slab->NextPartial = G.Partial[Slab->Class];
  G.Partial[Slab->Class] = Slab;
  Slab->InPartialList = true;
}

/// Returns a donated block to its home slab (or the fallback list).
/// Caller holds G.Mutex.
void globalFree(GlobalState &G, FreeBlock *Block, unsigned Class) {
  if (VBL_UNLIKELY(G.Arenas.count(arenaOf(Block)) == 0)) {
    // Exhaustion-minted block: no slab around it.
    Block->Next = G.FallbackFree[Class];
    G.FallbackFree[Class] = Block;
    return;
  }
  SlabHeader *Slab = slabOf(Block);
  Block->Next = Slab->Free;
  Slab->Free = Block;
  ++Slab->FreeCount;
  pushPartial(G, Slab);
}

/// Starts a fresh arena: ArenaBytes, self-aligned so that one huge page
/// can back it, advised once for transparent huge pages. Where the
/// kernel ignores or refuses the advice the arena stays on base pages,
/// which only costs the locality the advice buys. Arenas are never
/// returned; Arenas keeps them reachable. Caller holds G.Mutex.
void newArena(GlobalState &G) {
  void *Arena = alignedNew(NodePool::ArenaBytes, NodePool::ArenaBytes);
  (void)::madvise(Arena, NodePool::ArenaBytes, MADV_HUGEPAGE);
  G.Arenas.insert(Arena);
  G.ArenaCursor = static_cast<char *>(Arena);
  G.ArenaEnd = G.ArenaCursor + NodePool::ArenaBytes;
}

/// Carves a fresh slab for \p Class and pushes it on the partial stack.
/// Caller holds G.Mutex. Returns false when the slab byte limit forbids
/// growth.
bool carveSlab(GlobalState &G, unsigned Class) {
  if (G.SlabByteLimit != 0 &&
      G.SlabBytesLive + NodePool::SlabBytes > G.SlabByteLimit)
    return false;
  if (G.ArenaCursor == G.ArenaEnd)
    newArena(G);
  // Self-aligned (the arena is, and slabs tile it) so blocks can mask
  // their way back to the header.
  void *Base = G.ArenaCursor;
  G.ArenaCursor += NodePool::SlabBytes;
  G.SlabBytesLive += NodePool::SlabBytes;
  ++G.SlabsCarved;
  auto *Slab = ::new (Base) SlabHeader();
  Slab->Class = Class;
  const size_t Size = classSize(Class);
  char *Bytes = static_cast<char *>(Base);
  // The first block slot holds the header; blocks start one class size
  // in, which also keeps every block class-size-aligned within the
  // self-aligned slab.
  for (size_t Offset = Size; Offset + Size <= NodePool::SlabBytes;
       Offset += Size) {
    auto *Block = reinterpret_cast<FreeBlock *>(Bytes + Offset);
    Block->Next = Slab->Free;
    Slab->Free = Block;
    ++Slab->FreeCount;
  }
  pushPartial(G, Slab);
  return true;
}

/// Per-thread cache: one intrusive free list per class, no shared state
/// on the fast path. The destructor donates everything to the global
/// pool, so a thread's exit never strands blocks.
struct ThreadCache {
  FreeBlock *Lists[NodePool::NumClasses] = {};
  size_t Counts[NodePool::NumClasses] = {};
  uint64_t PoolAllocs = 0;
  uint64_t PoolFrees = 0;

  ~ThreadCache() {
    GlobalState &G = global();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    for (unsigned Class = 0; Class != NodePool::NumClasses; ++Class) {
      while (FreeBlock *Block = Lists[Class]) {
        Lists[Class] = Block->Next;
        globalFree(G, Block, Class);
      }
      G.BlocksDonated += Counts[Class];
      Counts[Class] = 0;
    }
    G.DeadPoolAllocs += PoolAllocs;
    G.DeadPoolFrees += PoolFrees;
  }
};

ThreadCache &cache() {
  thread_local ThreadCache Cache;
  return Cache;
}

} // namespace

void *NodePool::allocateImpl(unsigned Class, bool &FromGlobal) {
  ThreadCache &C = cache();
  if (FreeBlock *Block = C.Lists[Class]) {
    // Fast path: LIFO pop — the most recently freed (cache-warmest)
    // block of this class, no lock, no heap.
    C.Lists[Class] = Block->Next;
    --C.Counts[Class];
    ++C.PoolAllocs;
    stats::bump(stats::Counter::PoolHits);
    return Block;
  }

  GlobalState &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  // Pre-owned blocks: their previous lives must be ordered before our
  // reuse; the caller pairs this with an acquire of the transfer beacon.
  FromGlobal =
      G.Partial[Class] != nullptr || G.FallbackFree[Class] != nullptr;
  // Refill a whole batch, draining partial slabs top down and carving
  // fresh ones once they run out. The batch may span several slabs;
  // the arena they were carved from keeps it within one huge page.
  size_t Moved = 0;
  auto Take = [&](FreeBlock *Block) {
    Block->Next = C.Lists[Class];
    C.Lists[Class] = Block;
    ++C.Counts[Class];
    ++Moved;
  };
  while (Moved != TransferBatch) {
    if (G.Partial[Class] == nullptr && !carveSlab(G, Class))
      break;
    SlabHeader *Slab = G.Partial[Class];
    while (Moved != TransferBatch && Slab->Free) {
      FreeBlock *Block = Slab->Free;
      Slab->Free = Block->Next;
      --Slab->FreeCount;
      Take(Block);
    }
    if (Slab->FreeCount == 0) {
      G.Partial[Class] = Slab->NextPartial;
      Slab->NextPartial = nullptr;
      Slab->InPartialList = false;
    }
  }
  // Only reachable under the test-hook slab cap: recycle
  // exhaustion-minted blocks.
  while (Moved != TransferBatch && G.FallbackFree[Class]) {
    FreeBlock *Block = G.FallbackFree[Class];
    G.FallbackFree[Class] = Block->Next;
    Take(Block);
  }
  ++C.PoolAllocs;
  if (VBL_UNLIKELY(Moved == 0)) {
    // Exhaustion fallback: mint one heap block of exactly the class
    // size. It recycles through the free lists forever; the donation
    // path recognizes it by its lying in no arena.
    ++G.FallbackBlocks;
    return alignedNew(classSize(Class), CacheLineBytes);
  }
  ++G.GlobalRefills;
  stats::bump(stats::Counter::PoolMisses);
  FreeBlock *First = C.Lists[Class];
  C.Lists[Class] = First->Next;
  --C.Counts[Class];
  return First;
}

void NodePool::deallocateImpl(void *Ptr, unsigned Class, bool &ToGlobal) {
  ThreadCache &C = cache();
  if (VBL_UNLIKELY(C.Counts[Class] >= CacheCapPerClass)) {
    // Cache full: overflow a batch to the global pool so one churning
    // thread cannot hoard every block of a class.
    GlobalState &G = global();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    for (size_t Moved = 0; Moved != TransferBatch && C.Lists[Class];
         ++Moved) {
      FreeBlock *Block = C.Lists[Class];
      C.Lists[Class] = Block->Next;
      --C.Counts[Class];
      globalFree(G, Block, Class);
      ++G.BlocksDonated;
    }
    ToGlobal = true;
  }
  auto *Block = static_cast<FreeBlock *>(Ptr);
  Block->Next = C.Lists[Class];
  C.Lists[Class] = Block;
  ++C.Counts[Class];
  ++C.PoolFrees;
}

void *NodePool::bypassAllocate(size_t Bytes, size_t Align) {
  HeapAllocCount.fetch_add(1, std::memory_order_relaxed);
  stats::bump(stats::Counter::PoolBypass);
  return alignedNew(Bytes, Align);
}

void NodePool::bypassDeallocate(void *Ptr, size_t /*Bytes*/, size_t Align) {
  HeapFreeCount.fetch_add(1, std::memory_order_relaxed);
  alignedDelete(Ptr, Align);
}

void *NodePool::oversizeAllocate(size_t Bytes, size_t Align) {
  HeapAllocCount.fetch_add(1, std::memory_order_relaxed);
  stats::bump(stats::Counter::PoolBypass);
  return alignedNew(Bytes, Align);
}

void NodePool::oversizeDeallocate(void *Ptr, size_t /*Bytes*/,
                                  size_t Align) {
  HeapFreeCount.fetch_add(1, std::memory_order_relaxed);
  alignedDelete(Ptr, Align);
}

bool NodePool::bypassed() {
#ifdef VBL_POOL_BYPASS
  return true;
#else
  // Environment switch, sampled once: flipping it mid-process would
  // split object lifetimes across allocation modes.
  static const bool EnvBypass = [] {
    const char *Value = std::getenv("VBL_POOL_BYPASS");
    return Value && *Value && !(Value[0] == '0' && Value[1] == '\0');
  }();
  if (VBL_UNLIKELY(EnvBypass))
    return true;
  return bypassDepth().load(std::memory_order_relaxed) > 0;
#endif
}

NodePool::ScopedBypass::ScopedBypass() {
  bypassDepth().fetch_add(1, std::memory_order_relaxed);
}

NodePool::ScopedBypass::~ScopedBypass() {
  bypassDepth().fetch_sub(1, std::memory_order_relaxed);
}

std::atomic<uint64_t> &NodePool::transferBeacon() {
  static std::atomic<uint64_t> Beacon{0};
  return Beacon;
}

NodePool::Stats NodePool::stats() {
  Stats S;
  ThreadCache &C = cache();
  GlobalState &G = global();
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    S.SlabsCarved = G.SlabsCarved;
    S.GlobalRefills = G.GlobalRefills;
    S.BlocksDonated = G.BlocksDonated;
    S.FallbackBlocks = G.FallbackBlocks;
    S.PoolAllocs = G.DeadPoolAllocs;
    S.PoolFrees = G.DeadPoolFrees;
  }
  // Only the calling thread's live cache is visible without racing;
  // other running threads' fast-path counters fold in when they exit.
  S.PoolAllocs += C.PoolAllocs;
  S.PoolFrees += C.PoolFrees;
  S.HeapAllocs = HeapAllocCount.load(std::memory_order_relaxed);
  S.HeapFrees = HeapFreeCount.load(std::memory_order_relaxed);
  return S;
}

size_t NodePool::liveSlabBytes() {
  GlobalState &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  return G.SlabBytesLive;
}

void NodePool::setSlabByteLimitForTest(size_t Limit) {
  GlobalState &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  G.SlabByteLimit = Limit;
}
