//===- tests/lists/VblChunkListTest.cpp - Unrolled VBL tests -------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
//
// ChunkLock protocol tests plus chunk-list structure tests: split on
// overflow, compaction of dead slots, head splicing, empty-chunk
// unlink, invariants under randomized churn, and the chunk stats
// counters. The generic registry-driven suites (basic / concurrent /
// differential / property / chaos) already cover vbl-chunk* set
// semantics; this file asserts the *chunked* behaviours those suites
// cannot see.
//
//===----------------------------------------------------------------------===//

#include "core/VblChunkList.h"

#include "core/ChunkLock.h"
#include "reclaim/LeakyDomain.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

using namespace vbl;

//===----------------------------------------------------------------------===//
// ChunkLock unit tests
//===----------------------------------------------------------------------===//

TEST(ChunkLock, FastPathSkipsValidationWhenVersionUnchanged) {
  ChunkLock Lock;
  const uint64_t Seen = Lock.optimisticVersion<DirectPolicy>(nullptr);
  ASSERT_NE(Seen, ChunkLock::InvalidVersion);
  bool Revalidated = true;
  bool ValidateRan = false;
  EXPECT_TRUE(Lock.acquireIfValidSince<DirectPolicy>(
      nullptr, Seen,
      [&] {
        ValidateRan = true;
        return true;
      },
      &Revalidated));
  EXPECT_FALSE(Revalidated);
  EXPECT_FALSE(ValidateRan);
  EXPECT_TRUE(Lock.isLocked());
  Lock.release<DirectPolicy>(nullptr);
  EXPECT_FALSE(Lock.isLocked());
}

TEST(ChunkLock, SlowPathRevalidatesAfterInterveningWriter) {
  ChunkLock Lock;
  const uint64_t Seen = Lock.optimisticVersion<DirectPolicy>(nullptr);
  // An intervening critical section bumps the version past Seen + 1.
  ASSERT_TRUE(Lock.acquireIfValidSince<DirectPolicy>(
      nullptr, ChunkLock::InvalidVersion, [] { return true; }));
  Lock.release<DirectPolicy>(nullptr);
  bool Revalidated = false;
  bool ValidateRan = false;
  EXPECT_TRUE(Lock.acquireIfValidSince<DirectPolicy>(
      nullptr, Seen,
      [&] {
        ValidateRan = true;
        return true;
      },
      &Revalidated));
  EXPECT_TRUE(Revalidated);
  EXPECT_TRUE(ValidateRan);
  Lock.release<DirectPolicy>(nullptr);
}

TEST(ChunkLock, FailedValidationReleases) {
  ChunkLock Lock;
  EXPECT_FALSE(Lock.acquireIfValidSince<DirectPolicy>(
      nullptr, ChunkLock::InvalidVersion, [] { return false; }));
  EXPECT_FALSE(Lock.isLocked());
  // The lock stays usable after a rejected acquisition.
  EXPECT_TRUE(Lock.acquireIfValidSince<DirectPolicy>(
      nullptr, ChunkLock::InvalidVersion, [] { return true; }));
  Lock.release<DirectPolicy>(nullptr);
}

TEST(ChunkLock, OptimisticProbeFailsWhileHeld) {
  ChunkLock Lock;
  ASSERT_TRUE(Lock.acquireIfValidSince<DirectPolicy>(
      nullptr, ChunkLock::InvalidVersion, [] { return true; }));
  EXPECT_EQ(Lock.optimisticVersion<DirectPolicy>(nullptr),
            ChunkLock::InvalidVersion);
  Lock.release<DirectPolicy>(nullptr);
  EXPECT_NE(Lock.optimisticVersion<DirectPolicy>(nullptr),
            ChunkLock::InvalidVersion);
}

//===----------------------------------------------------------------------===//
// Chunk structure behaviour
//===----------------------------------------------------------------------===//

namespace {

template <class ListT> class ChunkVariantTest : public ::testing::Test {};

using ChunkVariants =
    ::testing::Types<VblChunkList<1>, VblChunkList<2>, VblChunkList<7>,
                     VblChunkList<15>,
                     VblChunkList<7, reclaim::LeakyDomain>,
                     VblChunkList<4, reclaim::EpochDomain, DirectPolicy,
                                  /*Adaptive=*/true>,
                     VblChunkList<7, reclaim::EpochDomain, DirectPolicy,
                                  /*Adaptive=*/true>>;
TYPED_TEST_SUITE(ChunkVariantTest, ChunkVariants);

TYPED_TEST(ChunkVariantTest, SetSemanticsAndInvariants) {
  TypeParam List;
  EXPECT_TRUE(List.checkInvariants());
  EXPECT_TRUE(List.insert(10));
  EXPECT_FALSE(List.insert(10));
  EXPECT_TRUE(List.contains(10));
  EXPECT_FALSE(List.contains(11));
  EXPECT_TRUE(List.remove(10));
  EXPECT_FALSE(List.remove(10));
  EXPECT_FALSE(List.contains(10));
  EXPECT_TRUE(List.checkInvariants());
  EXPECT_EQ(List.sizeSlow(), 0u);
}

TYPED_TEST(ChunkVariantTest, AscendingOverflowSplitsChunks) {
  TypeParam List;
  constexpr unsigned K = TypeParam::KeysPerChunk;
  // 4K ascending keys must overflow the first chunk repeatedly.
  const SetKey N = 4 * K;
  for (SetKey Key = 1; Key <= N; ++Key)
    ASSERT_TRUE(List.insert(Key));
  EXPECT_TRUE(List.checkInvariants());
  EXPECT_EQ(List.sizeSlow(), static_cast<size_t>(N));
  // Splits happened: more than one chunk, and no chunk holds the whole
  // key set (each holds at most K).
  EXPECT_GE(List.chunkCountSlow(), static_cast<size_t>(N) / K);
  std::vector<SetKey> Snap = List.snapshot();
  for (SetKey Key = 1; Key <= N; ++Key)
    EXPECT_TRUE(List.contains(Key)) << Key;
  EXPECT_TRUE(std::is_sorted(Snap.begin(), Snap.end()));
}

TYPED_TEST(ChunkVariantTest, DescendingInsertsSpliceBelowEveryAnchor) {
  // Every insert is below every existing anchor: the head-splice path,
  // one singleton chunk per key. 10000 chunks is more than the flow
  // view's FlowWalkCap, so the quiescent walk must not stop at the cap.
  for (SetKey N : {SetKey{50}, SetKey{10000}}) {
    TypeParam List;
    for (SetKey Key = N; Key >= 1; --Key)
      ASSERT_TRUE(List.insert(Key));
    EXPECT_TRUE(List.checkInvariants()) << N;
    EXPECT_EQ(List.chunkCountSlow(), static_cast<size_t>(N));
    const std::vector<SetKey> Snap = List.snapshot();
    ASSERT_EQ(Snap.size(), static_cast<size_t>(N));
    for (SetKey Key = 1; Key <= N; ++Key)
      ASSERT_EQ(Snap[static_cast<size_t>(Key - 1)], Key);
    for (SetKey Key = 1; Key <= N; Key += N / 50) // Every key of 50.
      EXPECT_TRUE(List.contains(Key)) << Key;
  }
}

TYPED_TEST(ChunkVariantTest, EmptiedChunksAreUnlinked) {
  TypeParam List;
  constexpr unsigned K = TypeParam::KeysPerChunk;
  const SetKey N = 4 * K;
  for (SetKey Key = 1; Key <= N; ++Key)
    ASSERT_TRUE(List.insert(Key));
  for (SetKey Key = 1; Key <= N; ++Key)
    ASSERT_TRUE(List.remove(Key));
  // Single-threaded, the best-effort unlink never loses its validation:
  // every emptied chunk must be gone.
  EXPECT_EQ(List.chunkCountSlow(), 0u);
  EXPECT_EQ(List.sizeSlow(), 0u);
  EXPECT_TRUE(List.checkInvariants());
}

TYPED_TEST(ChunkVariantTest, RandomChurnMatchesStdSet) {
  TypeParam List;
  std::set<SetKey> Model;
  Xoshiro256 Rng(0x5eedULL + TypeParam::KeysPerChunk);
  // A narrow key range forces constant split/compact/unlink traffic.
  constexpr uint64_t Range = 64;
  for (int I = 0; I != 6000; ++I) {
    const SetKey Key = static_cast<SetKey>(Rng.nextBounded(Range)) + 1;
    switch (Rng.nextBounded(3)) {
    case 0:
      EXPECT_EQ(List.insert(Key), Model.insert(Key).second);
      break;
    case 1:
      EXPECT_EQ(List.remove(Key), Model.erase(Key) != 0);
      break;
    default:
      EXPECT_EQ(List.contains(Key), Model.count(Key) != 0);
      break;
    }
  }
  EXPECT_TRUE(List.checkInvariants());
  const std::vector<SetKey> Snap = List.snapshot();
  EXPECT_TRUE(std::equal(Snap.begin(), Snap.end(), Model.begin(),
                         Model.end()));
}

TEST(VblChunkListTest, CompactionReclaimsDeadSlotsWithoutSplitting) {
  VblChunkList<2> List;
  ASSERT_TRUE(List.insert(10));
  ASSERT_TRUE(List.insert(20)); // Chunk (anchor 10) now has no clean slot.
  ASSERT_TRUE(List.remove(20)); // Dead slot, still no clean slot.
  EXPECT_EQ(List.chunkCountSlow(), 1u);
  const stats::Snapshot Before = stats::snapshotAll();
  ASSERT_TRUE(List.insert(15)); // Routed to the full-but-half-dead chunk.
  EXPECT_TRUE(List.contains(10));
  EXPECT_TRUE(List.contains(15));
  EXPECT_FALSE(List.contains(20));
  EXPECT_EQ(List.chunkCountSlow(), 1u); // Compacted, not split.
  EXPECT_TRUE(List.checkInvariants());
  if (stats::Enabled) {
    const stats::Snapshot D = stats::snapshotAll().delta(Before);
    EXPECT_EQ(D.get(stats::Counter::ChunkCompactions), 1u);
    EXPECT_EQ(D.get(stats::Counter::ChunkSplits), 0u);
  }
}

TEST(VblChunkListTest, SplitCounterAndOccupancyHistogram) {
  if (!stats::Enabled)
    GTEST_SKIP() << "stats compiled out";
  const stats::Snapshot Before = stats::snapshotAll();
  VblChunkList<2> List;
  ASSERT_TRUE(List.insert(10));
  ASSERT_TRUE(List.insert(20));
  ASSERT_TRUE(List.insert(30)); // Full chunk + live keys only: a split.
  EXPECT_EQ(List.chunkCountSlow(), 2u);
  ASSERT_TRUE(List.remove(10));
  ASSERT_TRUE(List.remove(20)); // Lower chunk emptied: an unlink.
  const stats::Snapshot D = stats::snapshotAll().delta(Before);
  EXPECT_EQ(D.get(stats::Counter::ChunkSplits), 1u);
  EXPECT_EQ(D.get(stats::Counter::ChunkUnlinks), 1u);
  // The split sampled occupancy 2 (bucket bit_width(2) == 2), the
  // unlink occupancy 0 (bucket 0).
  const auto &H = D.hist(stats::Histogram::ChunkOccupancy);
  EXPECT_EQ(H[stats::histogramBucket(2)], 1u);
  EXPECT_EQ(H[stats::histogramBucket(0)], 1u);
}

TEST(VblChunkListTest, ChunkLayoutIsLineAlignedAndPoolable) {
  // The whole point of the unrolling: K=7 packs header + one key line
  // into two cache lines, and every shape stays poolable.
  EXPECT_EQ(VblChunkList<7>::ChunkAlignment, size_t{CacheLineBytes});
  EXPECT_EQ(VblChunkList<7>::ChunkBytes, 2 * size_t{CacheLineBytes});
  EXPECT_EQ(VblChunkList<15>::ChunkBytes, 3 * size_t{CacheLineBytes});
  EXPECT_LE(VblChunkList<63>::ChunkBytes,
            reclaim::NodePool::MaxBlockBytes);
}

//===----------------------------------------------------------------------===//
// Contention-adaptive shapes (Adaptive=true)
//===----------------------------------------------------------------------===//

using AdaptiveK4 =
    VblChunkList<4, reclaim::EpochDomain, DirectPolicy, /*Adaptive=*/true>;

TEST(VblChunkListTest, AdaptiveMergeFoldsSingletonIntoSuccessor) {
  AdaptiveK4 List;
  // Ascending 1..5 lays out {1,2} -> {3,4,5} (median split of the full
  // first chunk). Removing 1 leaves a cold singleton whose union with
  // the 3-key successor fits one chunk, so the remove piggybacks a
  // merge: two sources frozen, one combined replacement swung in.
  for (SetKey Key = 1; Key <= 5; ++Key)
    ASSERT_TRUE(List.insert(Key));
  ASSERT_EQ(List.chunkCountSlow(), 2u);
  const stats::Snapshot Before = stats::snapshotAll();
  ASSERT_TRUE(List.remove(1));
  EXPECT_EQ(List.chunkCountSlow(), 1u);
  for (SetKey Key = 2; Key <= 5; ++Key)
    EXPECT_TRUE(List.contains(Key)) << Key;
  EXPECT_FALSE(List.contains(1));
  EXPECT_TRUE(List.checkInvariants());
  if (stats::Enabled) {
    const stats::Snapshot D = stats::snapshotAll().delta(Before);
    EXPECT_EQ(D.get(stats::Counter::ChunkMerges), 1u);
  }
}

TEST(VblChunkListTest, AdaptiveMergeRespectsQuarterFullHysteresis) {
  AdaptiveK4 List;
  // Build {10,15,20} -> {30}: ascending 10..50 splits into
  // {10,20} -> {30,40,50}, insert 15 refills the first chunk, removing
  // 40 and 50 thins the second to a singleton (whose own merge probe
  // hits Tail and gives up).
  for (SetKey Key : {10, 20, 30, 40, 50, 15})
    ASSERT_TRUE(List.insert(static_cast<SetKey>(Key)));
  ASSERT_TRUE(List.remove(40));
  ASSERT_TRUE(List.remove(50));
  ASSERT_EQ(List.chunkCountSlow(), 2u);
  const stats::Snapshot Before = stats::snapshotAll();
  // {15,20} left: half full, above the quarter-or-singleton watermark,
  // so no merge fires even though the union (3 keys) would fit — the
  // hysteresis that keeps steady-state half-full chunks from
  // split/merge thrash.
  ASSERT_TRUE(List.remove(10));
  EXPECT_EQ(List.chunkCountSlow(), 2u);
  EXPECT_TRUE(List.checkInvariants());
  if (stats::Enabled) {
    const stats::Snapshot D = stats::snapshotAll().delta(Before);
    EXPECT_EQ(D.get(stats::Counter::ChunkMerges), 0u);
  }
}

TEST(VblChunkListTest, ConcurrentChurnKeepsInvariants) {
  VblChunkList<7> List;
  constexpr int Threads = 4;
  constexpr uint64_t Range = 256;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&, T] {
      Xoshiro256 Rng(0xabcdULL + static_cast<uint64_t>(T));
      for (int I = 0; I != 20000; ++I) {
        const SetKey Key = static_cast<SetKey>(Rng.nextBounded(Range)) + 1;
        switch (Rng.nextBounded(4)) {
        case 0:
          List.insert(Key);
          break;
        case 1:
          List.remove(Key);
          break;
        default:
          List.contains(Key);
          break;
        }
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  EXPECT_TRUE(List.checkInvariants());
  // Quiesced: membership must be internally consistent.
  const std::vector<SetKey> Snap = List.snapshot();
  for (SetKey Key : Snap)
    EXPECT_TRUE(List.contains(Key));
}

} // namespace
