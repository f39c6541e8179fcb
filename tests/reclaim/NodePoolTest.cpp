//===- tests/reclaim/NodePoolTest.cpp - Node pool lifecycle --------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
//
// Lifecycle coverage for the per-thread slab pool: local recycling,
// thread-exit donation, cross-thread block migration, the oversize
// escape hatch, the bypass switch, and the huge-page arenas slabs are
// carved from.
// Every behavioural assertion about the pooled fast path is skipped
// when the whole binary runs bypassed (VBL_POOL_BYPASS=1 under ASan):
// in that mode there is no pool to observe, by design.
//
//===----------------------------------------------------------------------===//

#include "reclaim/EpochDomain.h"
#include "reclaim/NodePool.h"
#include "reclaim/LeakyDomain.h"

#include "core/VblChunkList.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace vbl::reclaim;

namespace {

struct PoolBox {
  uint64_t Payload[4] = {1, 2, 3, 4};
};

uintptr_t slabBase(void *Block) {
  return reinterpret_cast<uintptr_t>(Block) & ~(NodePool::SlabBytes - 1);
}

/// Parses a /proc/self/smaps mapping header ("lo-hi perms offset ...").
/// Field lines ("AnonHugePages: ...") start with a name, not a range.
bool parseMapping(const std::string &Line, uintptr_t &Lo, uintptr_t &Hi) {
  char *End = nullptr;
  Lo = std::strtoull(Line.c_str(), &End, 16);
  if (End == Line.c_str() || *End != '-')
    return false;
  Hi = std::strtoull(End + 1, &End, 16);
  return *End == ' ';
}

TEST(NodePoolTest, LocalFreeListRecyclesLifo) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; nothing to recycle";
  void *First = NodePool::allocate(64, 8);
  NodePool::deallocate(First, 64, 8);
  // The local free list is LIFO: the very next same-class allocation on
  // this thread must return the block just freed.
  void *Second = NodePool::allocate(64, 8);
  EXPECT_EQ(First, Second);
  NodePool::deallocate(Second, 64, 8);
}

TEST(NodePoolTest, SameClassServesSizeAndAlignmentFamily) {
  // 33..64 bytes and alignments up to 64 all land in one class; the
  // block must satisfy the strictest alignment in the family.
  void *Ptr = NodePool::allocate(40, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Ptr) % 64, 0u);
  NodePool::deallocate(Ptr, 40, 64);
}

TEST(NodePoolTest, ThreadExitDonatesCachedBlocks) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; nothing to donate";
  constexpr size_t Blocks = 40;
  const NodePool::Stats Before = NodePool::stats();
  std::thread([] {
    std::vector<void *> Held;
    for (size_t I = 0; I != Blocks; ++I)
      Held.push_back(NodePool::allocate(32, 8));
    for (void *Ptr : Held)
      NodePool::deallocate(Ptr, 32, 8);
    // All Blocks now sit in this thread's cache (below the cap); the
    // thread-cache destructor must hand every one back to the global
    // pool rather than strand them.
  }).join();
  const NodePool::Stats After = NodePool::stats();
  EXPECT_GE(After.BlocksDonated - Before.BlocksDonated, Blocks);
}

TEST(NodePoolTest, CrossThreadFreeThenReuse) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; no cross-thread migration";
  // A block allocated here and freed on another thread lands in *that*
  // thread's cache and serves its next allocation — the pattern EBR
  // produces when the collecting thread differs from the inserting one.
  void *Block = NodePool::allocate(128, 8);
  std::thread([Block] {
    NodePool::deallocate(Block, 128, 8);
    void *Reused = NodePool::allocate(128, 8);
    EXPECT_EQ(Block, Reused);
    NodePool::deallocate(Reused, 128, 8);
  }).join();
}

TEST(NodePoolTest, SlabsAreCarvedBackToBackInOneArena) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; no slabs";
  // A refill that carves hands back a block of the slab it carved last,
  // so each allocation that moves SlabsCarved names a fresh slab. A
  // 64-byte slab serves ~8 refills, so each such allocation carves one.
  std::vector<void *> Held;
  std::vector<uintptr_t> Fresh;
  std::thread([&] {
    while (Fresh.size() != 3 && Held.size() < (1u << 20)) {
      const uint64_t Before = NodePool::stats().SlabsCarved;
      Held.push_back(NodePool::allocate(64, 8));
      if (NodePool::stats().SlabsCarved == Before + 1)
        Fresh.push_back(slabBase(Held.back()));
    }
  }).join();
  ASSERT_EQ(Fresh.size(), 3u);
  // Consecutive slabs sit one slab apart inside one ArenaBytes-aligned
  // arena, unless the earlier one closed its arena and the later one
  // opens the next. Three carves cross at most one arena boundary.
  unsigned SameArena = 0;
  for (size_t I = 1; I != Fresh.size(); ++I) {
    const uintptr_t Prev = Fresh[I - 1], Cur = Fresh[I];
    if (Cur % NodePool::ArenaBytes == 0) {
      EXPECT_EQ((Prev + NodePool::SlabBytes) % NodePool::ArenaBytes, 0u);
      continue;
    }
    EXPECT_EQ(Cur, Prev + NodePool::SlabBytes);
    EXPECT_EQ(Cur / NodePool::ArenaBytes, Prev / NodePool::ArenaBytes);
    ++SameArena;
  }
  EXPECT_GE(SameArena, 1u);
  for (void *Ptr : Held)
    NodePool::deallocate(Ptr, 64, 8);
}

TEST(NodePoolTest, ArenasAreHugePageEligible) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; no arenas";
  std::string ThpMode;
  std::ifstream Mode("/sys/kernel/mm/transparent_hugepage/enabled");
  if (!std::getline(Mode, ThpMode) ||
      ThpMode.find("[never]") != std::string::npos)
    GTEST_SKIP() << "transparent huge pages off or not reported";
  // The mapping that holds a pooled block must be one the kernel may
  // back with huge pages: the arena's advice marked it so.
  void *Block = NodePool::allocate(64, 8);
  const uintptr_t Addr = reinterpret_cast<uintptr_t>(Block);
  std::ifstream Smaps("/proc/self/smaps");
  bool InMapping = false;
  std::string Line, Eligible;
  while (Eligible.empty() && std::getline(Smaps, Line)) {
    uintptr_t Lo = 0, Hi = 0;
    if (parseMapping(Line, Lo, Hi))
      InMapping = Lo <= Addr && Addr < Hi;
    else if (InMapping && Line.rfind("THPeligible:", 0) == 0)
      std::istringstream(Line.substr(12)) >> Eligible;
  }
  NodePool::deallocate(Block, 64, 8);
  EXPECT_EQ(Eligible, "1") << "THP mode: " << ThpMode;
}

TEST(NodePoolTest, RefillDrainsSeveralPartialSlabs) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; no refills";
  // 512-byte blocks: no other test here uses the class, and none of its
  // blocks are exhaustion-minted heap blocks.
  constexpr size_t Bytes = 512;
  constexpr size_t PerSlab = NodePool::SlabBytes / Bytes - 1;
  constexpr size_t Singles = 4;
  // One thread takes eight slabs' worth and gives back one block from
  // each of Singles slabs it holds completely; its exit donates them, so
  // each of those slabs is a partial slab with exactly one free block.
  std::vector<void *> Held;
  std::vector<void *> Given;
  std::thread([&] {
    for (size_t I = 0; I != 8 * PerSlab; ++I)
      Held.push_back(NodePool::allocate(Bytes, 8));
    std::map<uintptr_t, std::vector<void *>> BySlab;
    for (void *Ptr : Held)
      BySlab[slabBase(Ptr)].push_back(Ptr);
    for (auto &[Base, Blocks] : BySlab) {
      if (Blocks.size() != PerSlab || Given.size() == Singles)
        continue;
      Given.push_back(Blocks.back());
      NodePool::deallocate(Blocks.back(), Bytes, 8);
    }
  }).join();
  ASSERT_EQ(Given.size(), Singles);
  for (void *Ptr : Given)
    Held.erase(std::find(Held.begin(), Held.end(), Ptr));
  // A fresh thread's refills must still hand back a full batch each,
  // draining the single-block slabs on the way.
  constexpr size_t Batches = 4;
  const uint64_t RefillsBefore = NodePool::stats().GlobalRefills;
  std::vector<void *> Taken;
  std::thread([&] {
    for (size_t I = 0; I != Batches * NodePool::TransferBatch; ++I)
      Taken.push_back(NodePool::allocate(Bytes, 8));
  }).join();
  EXPECT_EQ(NodePool::stats().GlobalRefills - RefillsBefore, Batches);
  for (void *Ptr : Given)
    EXPECT_NE(std::find(Taken.begin(), Taken.end(), Ptr), Taken.end());
  for (void *Ptr : Held)
    NodePool::deallocate(Ptr, Bytes, 8);
  for (void *Ptr : Taken)
    NodePool::deallocate(Ptr, Bytes, 8);
}

TEST(NodePoolTest, OversizeRequestsRoundTripThroughHeap) {
  const NodePool::Stats Before = NodePool::stats();
  void *Big = NodePool::allocate(4096, 8);
  ASSERT_NE(Big, nullptr);
  NodePool::deallocate(Big, 4096, 8);
  // Over-aligned requests take the same escape hatch.
  void *Aligned = NodePool::allocate(64, 128);
  ASSERT_NE(Aligned, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Aligned) % 128, 0u);
  NodePool::deallocate(Aligned, 64, 128);
  const NodePool::Stats After = NodePool::stats();
  EXPECT_GE(After.HeapAllocs - Before.HeapAllocs, 2u);
  EXPECT_GE(After.HeapFrees - Before.HeapFrees, 2u);
}

TEST(NodePoolTest, ScopedBypassRoundTripsThroughHeap) {
  const NodePool::Stats Before = NodePool::stats();
  {
    NodePool::ScopedBypass Bypass;
    EXPECT_TRUE(NodePool::bypassed());
    // The whole lifetime sits inside the scope — the containment rule.
    PoolBox *Box = poolCreate<PoolBox>();
    EXPECT_EQ(Box->Payload[3], 4u);
    poolDestroy(Box);
  }
  const NodePool::Stats After = NodePool::stats();
  EXPECT_GE(After.HeapAllocs - Before.HeapAllocs, 1u);
  EXPECT_GE(After.HeapFrees - Before.HeapFrees, 1u);
}

TEST(NodePoolTest, ScopedBypassNests) {
  {
    NodePool::ScopedBypass Outer;
    {
      NodePool::ScopedBypass Inner;
      EXPECT_TRUE(NodePool::bypassed());
    }
    EXPECT_TRUE(NodePool::bypassed());
  }
}

TEST(NodePoolTest, PoolRetireFreesThroughEpochDomain) {
  // poolRetire defers the pool free behind the grace period exactly
  // like retire defers delete; collectAll from a quiescent thread must
  // recycle everything (freedCount is the domain's own accounting).
  EpochDomain Domain;
  constexpr int Count = 64;
  for (int I = 0; I != Count; ++I) {
    EpochDomain::Guard G(Domain);
    poolRetire(Domain, poolCreate<PoolBox>());
  }
  Domain.collectAll();
  EXPECT_EQ(Domain.freedCount(), static_cast<uint64_t>(Count));
}

//===----------------------------------------------------------------------===//
// Chunk-shaped requests (core/VblChunkList.h). The unrolled list's
// nodes are cache-line-aligned multi-line blocks — the largest, most
// alignment-sensitive shapes the lists ever ask the pool for.
//===----------------------------------------------------------------------===//

TEST(NodePoolTest, ChunkShapesStayWithinPooledClasses) {
  // Every registered chunk shape must be servable by a size class
  // (bytes <= MaxBlockBytes, align <= CacheLineBytes): chunk
  // allocation must never fall through to the oversize heap path.
  static_assert(vbl::VblChunkList<1>::ChunkBytes <= NodePool::MaxBlockBytes);
  static_assert(vbl::VblChunkList<7>::ChunkBytes <= NodePool::MaxBlockBytes);
  static_assert(vbl::VblChunkList<15>::ChunkBytes <= NodePool::MaxBlockBytes);
  static_assert(vbl::VblChunkList<63>::ChunkBytes <= NodePool::MaxBlockBytes);
  static_assert(vbl::VblChunkList<7>::ChunkAlignment ==
                vbl::CacheLineBytes);
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; class accounting not observable";
  const NodePool::Stats Before = NodePool::stats();
  void *Ptr = NodePool::allocate(vbl::VblChunkList<15>::ChunkBytes,
                                 vbl::VblChunkList<15>::ChunkAlignment);
  NodePool::deallocate(Ptr, vbl::VblChunkList<15>::ChunkBytes,
                       vbl::VblChunkList<15>::ChunkAlignment);
  const NodePool::Stats After = NodePool::stats();
  EXPECT_EQ(After.HeapAllocs, Before.HeapAllocs)
      << "chunk-sized request escaped to the oversize heap path";
}

TEST(NodePoolTest, ChunkAllocationsAreLineAligned) {
  // Alignment must hold in both pooled and bypass mode — the chunk
  // layout argument (anchor+header on line 0, keys on line 1+) depends
  // on it.
  for (size_t Bytes :
       {vbl::VblChunkList<1>::ChunkBytes, vbl::VblChunkList<7>::ChunkBytes,
        vbl::VblChunkList<15>::ChunkBytes}) {
    void *Ptr = NodePool::allocate(Bytes, vbl::CacheLineBytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Ptr) % vbl::CacheLineBytes, 0u)
        << "bytes=" << Bytes;
    NodePool::deallocate(Ptr, Bytes, vbl::CacheLineBytes);
  }
}

TEST(NodePoolTest, ChunkClassRecyclesLifo) {
  if (NodePool::bypassed())
    GTEST_SKIP() << "pool bypassed; nothing to recycle";
  constexpr size_t Bytes = vbl::VblChunkList<7>::ChunkBytes;
  void *First = NodePool::allocate(Bytes, vbl::CacheLineBytes);
  NodePool::deallocate(First, Bytes, vbl::CacheLineBytes);
  void *Second = NodePool::allocate(Bytes, vbl::CacheLineBytes);
  EXPECT_EQ(First, Second);
  NodePool::deallocate(Second, Bytes, vbl::CacheLineBytes);
}

TEST(NodePoolTest, ChunkListLifecycleCleanUnderBypass) {
  // A whole list built and torn down inside a bypass scope: every
  // chunk allocation round-trips through the heap (ASan-visible), and
  // the destructor must pair each one exactly.
  NodePool::ScopedBypass Bypass;
  {
    vbl::VblChunkList<7> List;
    for (vbl::SetKey Key = 1; Key <= 40; ++Key)
      ASSERT_TRUE(List.insert(Key));
    for (vbl::SetKey Key = 1; Key <= 40; Key += 2)
      ASSERT_TRUE(List.remove(Key));
    List.reclaimDomain().collectAll();
  }
}

TEST(NodePoolTest, PoolRetireFreesThroughLeakyDomain) {
  // LeakyDomain frees retirements in its destructor; running it with
  // pool-backed nodes under ASan/LSan proves the deleter pairing is
  // right in both pool and bypass mode.
  {
    LeakyDomain Domain;
    for (int I = 0; I != 16; ++I)
      poolRetire(Domain, poolCreate<PoolBox>());
    EXPECT_EQ(Domain.retiredCount(), 16u);
  }
}

} // namespace
