//===- tests/lists/VblChunkListTest.cpp - Unrolled VBL tests -------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
//
// ChunkLock protocol tests plus chunk-list structure tests: split on
// overflow, compaction of dead slots, head splicing, empty-chunk
// unlink, the merge of underfull chunks, invariants under randomized
// churn, the chunk stats counters, and the sorted-batch path
// (applyBatchSorted) over every registered chunk shape. The generic
// registry-driven suites (basic / concurrent / differential / property
// / chaos) already cover vbl-chunk* set semantics; this file asserts
// the *chunked* behaviours those suites cannot see.
//
//===----------------------------------------------------------------------===//

#include "core/VblChunkList.h"

#include "core/ChunkLock.h"
#include "lists/SetInterface.h"
#include "reclaim/LeakyDomain.h"
#include "support/Barrier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
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
                     VblChunkList<4>,
                     VblChunkList<4, reclaim::VbrDomain>>;
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
// Merging underfull chunks
//===----------------------------------------------------------------------===//

TEST(VblChunkListTest, MergeFoldsSingletonIntoSuccessor) {
  VblChunkList<4> List;
  // Ascending 1..5 lays out {1,2} -> {3,4,5} (median split of the full
  // first chunk). Removing 1 leaves a singleton whose union with
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

TEST(VblChunkListTest, MergeRespectsQuarterFullHysteresis) {
  VblChunkList<4> List;
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

//===----------------------------------------------------------------------===//
// Sorted-batch application (applyBatchSorted), over every registered
// chunk shape
//===----------------------------------------------------------------------===//

/// The template behind each registered vbl-chunk* entry (Registry.cpp),
/// in registration order.
using RegisteredChunkShapes = ::testing::Types<
    VblChunkList<7>, VblChunkList<1>, VblChunkList<15>,
    VblChunkList<7, reclaim::LeakyDomain>,
    VblChunkList<7, reclaim::VbrDomain>>;

struct RegisteredChunkNames {
  template <class T> static std::string GetName(int I) {
    static const char *const Names[] = {"vbl_chunk", "k1", "k15", "leaky",
                                        "vbr"};
    return Names[I];
  }
};

template <class ListT> class ChunkBatchTest : public ::testing::Test {};
TYPED_TEST_SUITE(ChunkBatchTest, RegisteredChunkShapes, RegisteredChunkNames);

/// Pointers to \p Ops in the order SetAdapter hands them over: by key,
/// then by address (submission order within one array).
std::vector<BatchOp *> sortedView(std::vector<BatchOp> &Ops) {
  std::vector<BatchOp *> View;
  for (BatchOp &O : Ops)
    View.push_back(&O);
  std::sort(View.begin(), View.end(), [](const BatchOp *A, const BatchOp *B) {
    if (A->Key != B->Key)
      return A->Key < B->Key;
    return std::less<const BatchOp *>()(A, B);
  });
  return View;
}

// Same-key ops take effect in submission order — the per-key FIFO
// contract of the batched service path. An insert;remove;insert triple
// on one key is only distinguishable from its permutations through the
// per-op results and the final membership; pin both.
TYPED_TEST(ChunkBatchTest, SameKeyOpsKeepSubmissionOrder) {
  static_assert(detail::HasSortedBatch<TypeParam>::value,
                "SetAdapter must apply vbl-chunk* batches in one pass");
  TypeParam List;
  BatchOp Ops[5];
  Ops[0] = {SetOp::Insert, 5};
  Ops[1] = {SetOp::Remove, 5};
  Ops[2] = {SetOp::Insert, 5};
  Ops[3] = {SetOp::Remove, 7}; // absent: must order before the insert
  Ops[4] = {SetOp::Insert, 7};
  BatchOp *Sorted[5] = {&Ops[0], &Ops[1], &Ops[2], &Ops[3], &Ops[4]};
  List.applyBatchSorted(Sorted, 5);
  EXPECT_TRUE(Ops[0].Result);
  EXPECT_TRUE(Ops[1].Result);
  EXPECT_TRUE(Ops[2].Result);
  EXPECT_FALSE(Ops[3].Result); // remove-before-insert saw an empty list
  EXPECT_TRUE(Ops[4].Result);
  EXPECT_EQ(List.snapshot(), (std::vector<SetKey>{5, 7}));
  EXPECT_TRUE(List.checkInvariants());
}

// Sequential differential against std::set. Batches are drawn over a
// key range of a few chunks with same-key runs, and sized so that one
// batch's own ops fill, split, compact and empty the chunk its cursor
// holds: the next op must then resume from the head. Phases of 50
// batches alternate between filling and draining, so chunks both
// overflow and run empty. Every Result, the invariants and the content
// are checked after each batch; with stats on, the chunk restructure
// counters must all move (compaction needs K > 1: a one-key chunk with
// a dead slot is empty, and an emptied chunk is unlinked at once).
TYPED_TEST(ChunkBatchTest, RandomSortedBatchesMatchStdSet) {
  constexpr unsigned K = TypeParam::KeysPerChunk;
  constexpr uint64_t Range = 8 * K + 8;
  const stats::Snapshot Before = stats::snapshotAll();
  TypeParam List;
  std::set<SetKey> Model;
  Xoshiro256 Rng(0xba7c4ULL + K);
  std::vector<BatchOp> Ops;
  for (int Batch = 0; Batch != 400; ++Batch) {
    Ops.assign(1 + Rng.nextBounded(4 * K + 4), BatchOp{});
    const bool Filling = (Batch / 50) % 2 == 0;
    for (size_t I = 0; I != Ops.size(); ++I) {
      // One op in four repeats its predecessor's key: same-key runs.
      Ops[I].Key = I != 0 && Rng.nextBounded(4) == 0
                       ? Ops[I - 1].Key
                       : static_cast<SetKey>(Rng.nextBounded(Range)) + 1;
      const uint64_t Kind = Rng.nextBounded(5);
      const uint64_t Inserts = Filling ? 3 : 1;
      Ops[I].Op = Kind < Inserts ? SetOp::Insert
                  : Kind < 4     ? SetOp::Remove
                                 : SetOp::Contains;
    }
    const std::vector<BatchOp *> View = sortedView(Ops);
    List.applyBatchSorted(View.data(), View.size());
    for (const BatchOp *O : View) {
      bool Expected = false;
      switch (O->Op) {
      case SetOp::Insert:
        Expected = Model.insert(O->Key).second;
        break;
      case SetOp::Remove:
        Expected = Model.erase(O->Key) != 0;
        break;
      default:
        Expected = Model.count(O->Key) != 0;
        break;
      }
      ASSERT_EQ(O->Result, Expected)
          << "batch " << Batch << " op " << static_cast<int>(O->Op)
          << " key " << O->Key;
    }
    ASSERT_TRUE(List.checkInvariants()) << "batch " << Batch;
    const std::vector<SetKey> Snap = List.snapshot();
    ASSERT_TRUE(std::equal(Snap.begin(), Snap.end(), Model.begin(),
                           Model.end()))
        << "batch " << Batch;
  }
  if (stats::Enabled) {
    const stats::Snapshot D = stats::snapshotAll().delta(Before);
    EXPECT_GT(D.get(stats::Counter::ChunkSplits), 0u);
    if (K > 1) {
      EXPECT_GT(D.get(stats::Counter::ChunkCompactions), 0u);
    }
    EXPECT_GT(D.get(stats::Counter::ChunkUnlinks), 0u);
  }
}

// Real threads: four writers apply random sorted batches over a few
// chunks, so cursors routinely hold chunks that another thread freezes,
// unlinks or merges. Successful inserts and removes of one key
// alternate, so each key's final presence must equal its initial
// presence plus the successful inserts minus the successful removes,
// summed over the threads; the invariants must hold after the join.
TYPED_TEST(ChunkBatchTest, ConcurrentBatchesKeepEveryKeysAccount) {
  constexpr unsigned K = TypeParam::KeysPerChunk;
  constexpr uint64_t Range = 4 * K + 8;
  constexpr int Threads = 4;
  TypeParam List;
  std::vector<long> Net(Range + 1, 0);
  for (SetKey Key = 1; Key <= static_cast<SetKey>(Range); Key += 2) {
    ASSERT_TRUE(List.insert(Key));
    Net[static_cast<size_t>(Key)] = 1;
  }
  std::vector<std::vector<long>> PerThread(Threads,
                                           std::vector<long>(Range + 1, 0));
  SpinBarrier Start(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&List, &Start, &Mine = PerThread[T], T] {
      Xoshiro256 Rng(0xc0ffeeULL + static_cast<uint64_t>(T));
      std::vector<BatchOp> Ops;
      Start.arriveAndWait();
      for (int Batch = 0; Batch != 20000; ++Batch) {
        Ops.assign(1 + Rng.nextBounded(16), BatchOp{});
        for (BatchOp &O : Ops) {
          O.Key = static_cast<SetKey>(Rng.nextBounded(Range)) + 1;
          O.Op = static_cast<SetOp>(Rng.nextBounded(3));
        }
        const std::vector<BatchOp *> View = sortedView(Ops);
        List.applyBatchSorted(View.data(), View.size());
        for (const BatchOp &O : Ops)
          if (O.Result && O.Op != SetOp::Contains)
            Mine[static_cast<size_t>(O.Key)] += O.Op == SetOp::Insert ? 1 : -1;
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_TRUE(List.checkInvariants());
  for (SetKey Key = 1; Key <= static_cast<SetKey>(Range); ++Key) {
    long Expected = Net[static_cast<size_t>(Key)];
    for (const std::vector<long> &Mine : PerThread)
      Expected += Mine[static_cast<size_t>(Key)];
    ASSERT_TRUE(Expected == 0 || Expected == 1) << "key " << Key;
    EXPECT_EQ(List.contains(Key), Expected == 1) << "key " << Key;
  }
}

// The registry entries reach the same path through SetAdapter, which
// sorts the caller's array itself: results land in submission slots.
TEST(ChunkBatchRegistryTest, UnsortedBatchesThroughTheAdapter) {
  for (const std::string &Name : registeredSetNames()) {
    if (Name.rfind("vbl-chunk", 0) != 0)
      continue;
    std::unique_ptr<ConcurrentSet> Set = makeSet(Name);
    ASSERT_TRUE(Set) << Name;
    std::set<SetKey> Model;
    Xoshiro256 Rng(0xada9ULL);
    for (int Batch = 0; Batch != 200; ++Batch) {
      std::vector<BatchOp> Ops(1 + Rng.nextBounded(32));
      for (BatchOp &O : Ops) {
        O.Key = static_cast<SetKey>(Rng.nextBounded(48)) + 1;
        O.Op = static_cast<SetOp>(Rng.nextBounded(3));
      }
      Set->applyBatch(Ops.data(), Ops.size());
      // Distinct keys commute and same-key ops keep array order, so
      // array order is a valid sequential witness.
      for (const BatchOp &O : Ops) {
        bool Expected = false;
        switch (O.Op) {
        case SetOp::Insert:
          Expected = Model.insert(O.Key).second;
          break;
        case SetOp::Remove:
          Expected = Model.erase(O.Key) != 0;
          break;
        default:
          Expected = Model.count(O.Key) != 0;
          break;
        }
        ASSERT_EQ(O.Result, Expected) << Name << " batch " << Batch;
      }
    }
    EXPECT_TRUE(Set->checkInvariants()) << Name;
    EXPECT_EQ(Set->snapshot(), std::vector<SetKey>(Model.begin(), Model.end()))
        << Name;
  }
}

template <class ListT> class ChunkBatchDeathTest : public ::testing::Test {};
TYPED_TEST_SUITE(ChunkBatchDeathTest, RegisteredChunkShapes,
                 RegisteredChunkNames);

// The sorted-batch entry point asserts its precondition instead of
// silently reordering: same-key ops handed in descending array-slot
// order would swap an insert(k);remove(k) pair.
TYPED_TEST(ChunkBatchDeathTest, SameKeyOpsOutOfSubmissionOrderAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TypeParam List;
  BatchOp Ops[2];
  Ops[0] = {SetOp::Insert, 5};
  Ops[1] = {SetOp::Remove, 5};
  BatchOp *Misordered[2] = {&Ops[1], &Ops[0]};
  EXPECT_DEATH(List.applyBatchSorted(Misordered, 2), "submission order");
}

TYPED_TEST(ChunkBatchDeathTest, DescendingKeysAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TypeParam List;
  BatchOp Ops[2];
  Ops[0] = {SetOp::Insert, 9};
  Ops[1] = {SetOp::Insert, 4};
  BatchOp *Unsorted[2] = {&Ops[0], &Ops[1]};
  EXPECT_DEATH(List.applyBatchSorted(Unsorted, 2), "submission order");
}

// Batches carry point ops only (scans run through rangeQuery), so a
// scan inside a sorted batch is a caller bug.
TYPED_TEST(ChunkBatchDeathTest, RangeQueryAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TypeParam List;
  BatchOp Scan{SetOp::RangeQuery, 1};
  BatchOp *One[1] = {&Scan};
  EXPECT_DEATH(List.applyBatchSorted(One, 1), "point ops only");
}

} // namespace
