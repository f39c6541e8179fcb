//===- tests/maps/SplitOrderedHashSetTest.cpp - Split-ordered hash set ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Functional coverage for the split-ordered hash set over both
/// substrates: the key-encoding algebra, sequential and differential
/// behaviour, lazy bucket splitting under growth, registry integration,
/// multi-threaded stress with invariant checks, and a recorded-history
/// linearizability check through src/lin.
///
//===----------------------------------------------------------------------===//

#include "maps/SplitOrderedHashSet.h"

#include "core/VblList.h"
#include "lin/LinChecker.h"
#include "lists/HarrisMichaelList.h"
#include "lists/SetInterface.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/LeakyDomain.h"
#include "reclaim/VbrDomain.h"
#include "stats/Stats.h"
#include "support/Barrier.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

using namespace vbl;

namespace {

using HmHash = maps::SplitOrderedHashSet<HarrisMichaelList<>>;
using VblHash = maps::SplitOrderedHashSet<VblList<>>;
using HpHash = maps::SplitOrderedHashSet<
    HarrisMichaelList<reclaim::HazardPointerDomain>>;
using VbrHash = maps::SplitOrderedHashSet<VblList<reclaim::VbrDomain>>;

/// A table of \p InitialBuckets that doubles past \p GrowLoadFactor
/// keys per bucket; the other fields keep their defaults.
HashSetConfig tableConfig(size_t InitialBuckets, size_t GrowLoadFactor) {
  HashSetConfig C;
  C.InitialBuckets = InitialBuckets;
  C.GrowLoadFactor = GrowLoadFactor;
  return C;
}

/// Config used by the churn tests: tiny table, load factor 1
/// (aggressive growth), minimal hysteresis so the drain phase walks the
/// index back down.
HashSetConfig churnConfig() {
  HashSetConfig C = tableConfig(1, 1);
  C.ShrinkDivisor = 2;
  return C;
}

//===----------------------------------------------------------------===//
// Encoding algebra
//===----------------------------------------------------------------===//

TEST(SplitOrderTest, EncodingRoundTrips) {
  Xoshiro256 Rng(7);
  for (int I = 0; I != 2000; ++I) {
    const auto Key = static_cast<SetKey>(Rng.next() & so::HashKeyMask);
    ASSERT_TRUE(isHashKey(Key));
    const SetKey SoKey = so::regularSoKey(Key);
    ASSERT_TRUE(so::isRegularSoKey(SoKey));
    ASSERT_TRUE(isUserKey(SoKey));
    ASSERT_EQ(so::decodeRegular(SoKey), Key);
  }
}

TEST(SplitOrderTest, RegularKeysAreInjective) {
  // mix62 is a bijection and reverse64 is an involution, so distinct
  // keys get distinct split-order keys; spot-check a dense range (the
  // worst case for a multiplicative hash).
  std::set<SetKey> Images;
  for (SetKey Key = 0; Key != 4096; ++Key)
    Images.insert(so::regularSoKey(Key));
  EXPECT_EQ(Images.size(), 4096u);
}

TEST(SplitOrderTest, DummyPrecedesItsBucketContents) {
  // At every table size S, bucket b's dummy key sorts before every
  // regular key hashing to b, and after the dummy of every bucket that
  // is a prefix-ancestor of b — that is the split-ordering invariant
  // that makes lazy recursive initialization correct.
  Xoshiro256 Rng(11);
  for (uint64_t Size : {1u, 2u, 4u, 8u, 64u, 1024u}) {
    for (int I = 0; I != 500; ++I) {
      const auto Key = static_cast<SetKey>(Rng.next() & so::HashKeyMask);
      const uint64_t Bucket = so::mix62(static_cast<uint64_t>(Key)) &
                              (Size - 1);
      EXPECT_LT(so::dummySoKey(Bucket), so::regularSoKey(Key));
      if (Bucket != 0) {
        EXPECT_LT(so::dummySoKey(so::parentBucket(Bucket)),
                  so::dummySoKey(Bucket));
      }
    }
  }
}

TEST(SplitOrderTest, SplitRedistributesWithoutReordering) {
  // Doubling S to 2S splits bucket b into b and b + S. Keys that move
  // to b + S must all sort after the new dummy; keys that stay must
  // sort before it.
  Xoshiro256 Rng(13);
  for (uint64_t Size : {1u, 2u, 8u, 256u}) {
    for (int I = 0; I != 500; ++I) {
      const auto Key = static_cast<SetKey>(Rng.next() & so::HashKeyMask);
      const uint64_t Mixed = so::mix62(static_cast<uint64_t>(Key));
      const uint64_t Old = Mixed & (Size - 1);
      const uint64_t New = Mixed & (2 * Size - 1);
      const SetKey ChildDummy = so::dummySoKey(Old + Size);
      if (New == Old)
        EXPECT_LT(so::regularSoKey(Key), ChildDummy);
      else
        EXPECT_GT(so::regularSoKey(Key), ChildDummy);
    }
  }
}

//===----------------------------------------------------------------===//
// Sequential behaviour, both substrates
//===----------------------------------------------------------------===//

template <class HashT> void basicOps() {
  HashT Set;
  EXPECT_FALSE(Set.contains(42));
  EXPECT_TRUE(Set.insert(42));
  EXPECT_FALSE(Set.insert(42));
  EXPECT_TRUE(Set.contains(42));
  EXPECT_TRUE(Set.insert(0));
  EXPECT_TRUE(Set.insert(MaxHashKey - 1));
  EXPECT_EQ(Set.snapshot(), (std::vector<SetKey>{0, 42, MaxHashKey - 1}));
  EXPECT_TRUE(Set.remove(42));
  EXPECT_FALSE(Set.remove(42));
  EXPECT_FALSE(Set.contains(42));
  EXPECT_EQ(Set.sizeFast(), 2);
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(SplitOrderedHashSetTest, BasicOpsHarrisMichael) { basicOps<HmHash>(); }
TEST(SplitOrderedHashSetTest, BasicOpsVbl) { basicOps<VblHash>(); }
TEST(SplitOrderedHashSetTest, BasicOpsHarrisMichaelHp) { basicOps<HpHash>(); }

template <class HashT> void growthSplitsBuckets() {
  // Tiny table + load factor 1: every few inserts double the index.
  HashT Set(tableConfig(1, 1));
  EXPECT_EQ(Set.bucketCount(), 1u);
  constexpr SetKey N = 300;
  for (SetKey Key = 0; Key != N; ++Key)
    ASSERT_TRUE(Set.insert(Key * 1315423911));
  EXPECT_GE(Set.bucketCount(), 256u);
  for (SetKey Key = 0; Key != N; ++Key)
    ASSERT_TRUE(Set.contains(Key * 1315423911)) << Key;
  EXPECT_EQ(Set.sizeFast(), N);
  EXPECT_TRUE(Set.checkInvariants());
  // Dummies survive removals; the structure stays consistent empty.
  for (SetKey Key = 0; Key != N; ++Key)
    ASSERT_TRUE(Set.remove(Key * 1315423911));
  EXPECT_EQ(Set.sizeFast(), 0);
  EXPECT_TRUE(Set.snapshot().empty());
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(SplitOrderedHashSetTest, GrowthSplitsBucketsHarrisMichael) {
  growthSplitsBuckets<HmHash>();
}
TEST(SplitOrderedHashSetTest, GrowthSplitsBucketsVbl) {
  growthSplitsBuckets<VblHash>();
}
TEST(SplitOrderedHashSetTest, GrowthSplitsBucketsHarrisMichaelHp) {
  growthSplitsBuckets<HpHash>();
}

template <class HashT> void differentialVsStdSet(uint64_t Seed) {
  HashT Set(tableConfig(2, 2));
  std::set<SetKey> Model;
  Xoshiro256 Rng(Seed);
  for (int I = 0; I != 20000; ++I) {
    const auto Key = static_cast<SetKey>(Rng.nextBounded(512));
    switch (Rng.nextBounded(3)) {
    case 0:
      ASSERT_EQ(Set.insert(Key), Model.insert(Key).second);
      break;
    case 1:
      ASSERT_EQ(Set.remove(Key), Model.erase(Key) != 0);
      break;
    default:
      ASSERT_EQ(Set.contains(Key), Model.count(Key) != 0);
      break;
    }
  }
  EXPECT_EQ(Set.snapshot(),
            std::vector<SetKey>(Model.begin(), Model.end()));
  EXPECT_EQ(Set.sizeFast(), static_cast<int64_t>(Model.size()));
  EXPECT_TRUE(Set.checkInvariants());
}

TEST(SplitOrderedHashSetTest, DifferentialHarrisMichael) {
  differentialVsStdSet<HmHash>(101);
}
TEST(SplitOrderedHashSetTest, DifferentialVbl) {
  differentialVsStdSet<VblHash>(202);
}
TEST(SplitOrderedHashSetTest, DifferentialHarrisMichaelHp) {
  differentialVsStdSet<HpHash>(303);
}

/// Churn differential: same model check, but the set breathes — the
/// drain phases exercise maybeShrink against live lookups.
template <class HashT> void differentialWithShrink(uint64_t Seed) {
  HashT Set(churnConfig());
  std::set<SetKey> Model;
  Xoshiro256 Rng(Seed);
  for (int Phase = 0; Phase != 6; ++Phase) {
    // Even phases lean insert-heavy (grow), odd phases remove-heavy
    // (shrink); lookups run throughout.
    const bool Draining = Phase & 1;
    for (int I = 0; I != 4000; ++I) {
      const auto Key = static_cast<SetKey>(Rng.nextBounded(512));
      switch (Rng.nextBounded(4)) {
      case 0:
      case 1:
      case 2:
        if (Draining)
          ASSERT_EQ(Set.remove(Key), Model.erase(Key) != 0);
        else
          ASSERT_EQ(Set.insert(Key), Model.insert(Key).second);
        break;
      default:
        ASSERT_EQ(Set.contains(Key), Model.count(Key) != 0);
        break;
      }
    }
    ASSERT_TRUE(Set.checkInvariants());
  }
  EXPECT_EQ(Set.snapshot(),
            std::vector<SetKey>(Model.begin(), Model.end()));
}

TEST(SplitOrderedHashSetTest, DifferentialShrinkHarrisMichael) {
  differentialWithShrink<HmHash>(404);
}
TEST(SplitOrderedHashSetTest, DifferentialShrinkVbl) {
  differentialWithShrink<VblHash>(505);
}

//===----------------------------------------------------------------===//
// Registry integration
//===----------------------------------------------------------------===//

TEST(SplitOrderedHashSetTest, RegistryExposesHashSetsSeparately) {
  const auto HashNames = registeredHashSetNames();
  ASSERT_EQ(HashNames.size(), 4u);
  const auto ListNames = registeredSetNames();
  for (const std::string &Name : HashNames) {
    // Resolvable by name, but not enumerated with the full-domain lists
    // (generic list tests feed keys outside [0, 2^62)).
    EXPECT_EQ(std::count(ListNames.begin(), ListNames.end(), Name), 0)
        << Name;
    auto Set = makeSet(Name);
    ASSERT_NE(Set, nullptr) << Name;
    EXPECT_EQ(Set->name(), Name);
    EXPECT_TRUE(Set->insert(7));
    EXPECT_TRUE(Set->contains(7));
    EXPECT_TRUE(Set->remove(7));
    EXPECT_TRUE(Set->checkInvariants());
  }
}

//===----------------------------------------------------------------===//
// Config validation: every rejection has a stable name
//===----------------------------------------------------------------===//

TEST(HashSetConfigTest, ValidateNamesEveryRejection) {
  HashSetConfig C;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::None);

  C = HashSetConfig{};
  C.InitialBuckets = 12;
  EXPECT_EQ(validateHashSetConfig(C),
            HashSetConfigError::InitialNotPowerOfTwo);
  C.InitialBuckets = 0;
  EXPECT_EQ(validateHashSetConfig(C),
            HashSetConfigError::InitialNotPowerOfTwo);

  C = HashSetConfig{};
  C.MinBuckets = 3;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::MinNotPowerOfTwo);

  C = HashSetConfig{};
  C.MaxBuckets = 100;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::MaxNotPowerOfTwo);

  C = HashSetConfig{};
  C.MinBuckets = 64;
  C.InitialBuckets = 16;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::BoundsInverted);
  C = HashSetConfig{};
  C.InitialBuckets = size_t(1) << 23;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::BoundsInverted);

  C = HashSetConfig{};
  C.GrowLoadFactor = 0;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::ZeroLoadFactor);

  // Every table shrinks, so a divisor without hysteresis is always
  // refused.
  for (size_t Divisor : {0, 1}) {
    C = HashSetConfig{};
    C.ShrinkDivisor = Divisor;
    EXPECT_EQ(validateHashSetConfig(C),
              HashSetConfigError::ShrinkDivisorTooSmall);
  }
  C.ShrinkDivisor = 2;
  EXPECT_EQ(validateHashSetConfig(C), HashSetConfigError::None);

  EXPECT_STREQ(hashSetConfigErrorName(HashSetConfigError::None), "None");
  EXPECT_STREQ(
      hashSetConfigErrorName(HashSetConfigError::InitialNotPowerOfTwo),
      "InitialNotPowerOfTwo");
  EXPECT_STREQ(
      hashSetConfigErrorName(HashSetConfigError::ShrinkDivisorTooSmall),
      "ShrinkDivisorTooSmall");
}

//===----------------------------------------------------------------===//
// Shrink churn: the index follows the population back down, and every
// displaced segment flows through the substrate's reclamation domain.
//===----------------------------------------------------------------===//

/// Grows a set to >= 256 buckets, drains it, and pulses a little churn
/// so the final halvings run; asserts the index returns to the
/// MinBuckets low watermark while every key stays correct.
/// Returns counter deltas so each domain's test can assert on segment
/// retirement its own way.
template <class HashT> stats::Snapshot growDrainChurn(HashT &Set) {
  const stats::Snapshot Before = stats::snapshotAll();
  constexpr SetKey N = 300;
  for (SetKey Key = 0; Key != N; ++Key)
    EXPECT_TRUE(Set.insert(Key * 1315423911));
  EXPECT_GE(Set.bucketCount(), 256u);
  for (SetKey Key = 0; Key != N; ++Key)
    EXPECT_TRUE(Set.remove(Key * 1315423911));
  for (int I = 0; I != 32; ++I) {
    EXPECT_TRUE(Set.insert(7));
    EXPECT_TRUE(Set.remove(7));
  }
  EXPECT_EQ(Set.bucketCount(), Set.config().MinBuckets);
  EXPECT_GE(Set.maxBucketCountEver(), 256u);
  EXPECT_EQ(Set.sizeFast(), 0);
  EXPECT_TRUE(Set.checkInvariants());
  return stats::snapshotAll().delta(Before);
}

TEST(SplitOrderedHashSetTest, ShrinkChurnEbr) {
  HmHash Set(churnConfig());
  const stats::Snapshot Delta = growDrainChurn(Set);
  if (stats::Enabled) {
    EXPECT_GT(Delta.get(stats::Counter::MapResizeGrows), 0u);
    EXPECT_GT(Delta.get(stats::Counter::MapResizeShrinks), 0u);
    EXPECT_GT(Delta.get(stats::Counter::MapResizeSegmentsRetired), 0u);
  }
  // Every displaced index went through the epoch domain; with all
  // guards dropped a collect frees the backlog.
  auto &Domain = Set.reclaimDomain();
  EXPECT_GT(Domain.retiredCount(), 0u);
  Domain.collectAll();
  EXPECT_GT(Domain.freedCount(), 0u);
}

TEST(SplitOrderedHashSetTest, ShrinkChurnHp) {
  HpHash Set(churnConfig());
  const stats::Snapshot Delta = growDrainChurn(Set);
  if (stats::Enabled) {
    EXPECT_GT(Delta.get(stats::Counter::MapResizeShrinks), 0u);
  }
  // Hazard domain: no thread holds a protection now, so a full scan
  // frees every displaced segment.
  auto &Domain = Set.reclaimDomain();
  EXPECT_GT(Domain.retiredCount(), 0u);
  Domain.collectAll();
  EXPECT_GT(Domain.freedCount(), 0u);
}

TEST(SplitOrderedHashSetTest, ShrinkChurnVbr) {
  VbrHash Set(churnConfig());
  const stats::Snapshot Delta = growDrainChurn(Set);
  if (stats::Enabled) {
    EXPECT_GT(Delta.get(stats::Counter::MapResizeShrinks), 0u);
  }
  // VBR parks raw (non-pool) retirees until domain teardown; the
  // displaced indexes are accounted for, not lost.
  EXPECT_GT(Set.reclaimDomain().retiredCount(), 0u);
}

TEST(SplitOrderedHashSetTest, ShrinkChurnLeakyBounded) {
  using LeakyHash =
      maps::SplitOrderedHashSet<HarrisMichaelList<reclaim::LeakyDomain>>;
  LeakyHash Set(churnConfig());
  const stats::Snapshot Delta = growDrainChurn(Set);
  // The leaky domain never frees, so boundedness is the whole claim:
  // hysteresis keeps resize churn proportional to the log of the peak
  // table size plus the number of drain pulses — not to the op count.
  if (stats::Enabled) {
    const uint64_t Resizes = Delta.get(stats::Counter::MapResizes);
    EXPECT_GT(Resizes, 0u);
    EXPECT_LE(Resizes, 64u);
  }
}

template <class HashT> void concurrentStress() {
  // Force aggressive concurrent splitting: tiny initial table, load
  // factor 1, keys spread across the whole domain.
  HashT Set(tableConfig(1, 1));
  constexpr unsigned Threads = 4;
  constexpr int OpsPerThread = 8000;
  constexpr uint64_t Range = 1024;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      Xoshiro256 Rng(T + 1);
      Barrier.arriveAndWait();
      for (int I = 0; I != OpsPerThread; ++I) {
        const auto Key =
            static_cast<SetKey>(Rng.nextBounded(Range) * 0x9E3779B9ULL);
        switch (Rng.nextBounded(4)) {
        case 0:
          Set.insert(Key);
          break;
        case 1:
          Set.remove(Key);
          break;
        default:
          Set.contains(Key);
          break;
        }
      }
    });
  for (auto &Worker : Workers)
    Worker.join();
  EXPECT_TRUE(Set.checkInvariants());
  EXPECT_EQ(Set.sizeFast(), static_cast<int64_t>(Set.sizeSlow()));
  EXPECT_GT(Set.bucketCount(), 1u);
}

TEST(SplitOrderedHashSetTest, ConcurrentStressHarrisMichael) {
  concurrentStress<HmHash>();
}
TEST(SplitOrderedHashSetTest, ConcurrentStressVbl) {
  concurrentStress<VblHash>();
}
TEST(SplitOrderedHashSetTest, ConcurrentStressHarrisMichaelHp) {
  concurrentStress<HpHash>();
}

/// Phased concurrent churn against a tiny-watermark table: all threads
/// fill, then all drain, repeated — the table breathes under real
/// parallelism while lookups race each swing.
template <class HashT> void concurrentShrinkStress() {
  HashT Set(churnConfig());
  constexpr unsigned Threads = 4;
  constexpr int Phases = 4;
  constexpr uint64_t Range = 512;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      Xoshiro256 Rng(T + 31);
      for (int Phase = 0; Phase != Phases; ++Phase) {
        Barrier.arriveAndWait();
        const bool Draining = Phase & 1;
        for (int I = 0; I != 3000; ++I) {
          const auto Key =
              static_cast<SetKey>(Rng.nextBounded(Range) * 0x9E3779B9ULL);
          if (Rng.nextBounded(4) == 0)
            Set.contains(Key);
          else if (Draining)
            Set.remove(Key);
          else
            Set.insert(Key);
        }
      }
    });
  for (auto &Worker : Workers)
    Worker.join();
  EXPECT_TRUE(Set.checkInvariants());
  EXPECT_EQ(Set.sizeFast(), static_cast<int64_t>(Set.sizeSlow()));
  EXPECT_GT(Set.maxBucketCountEver(), Set.config().MinBuckets);
}

TEST(SplitOrderedHashSetTest, ConcurrentShrinkStressHarrisMichael) {
  concurrentShrinkStress<HmHash>();
}
TEST(SplitOrderedHashSetTest, ConcurrentShrinkStressVbl) {
  concurrentShrinkStress<VblHash>();
}
TEST(SplitOrderedHashSetTest, ConcurrentShrinkStressHarrisMichaelHp) {
  concurrentShrinkStress<HpHash>();
}
TEST(SplitOrderedHashSetTest, ConcurrentShrinkStressVbr) {
  concurrentShrinkStress<VbrHash>();
}

//===----------------------------------------------------------------===//
// Linearizability (src/lin) on a recorded real-time history
//===----------------------------------------------------------------===//

void checkLinearizable(const std::string &Algo) {
  auto Set = makeSet(Algo);
  ASSERT_NE(Set, nullptr);
  std::vector<SetKey> Initial;
  for (SetKey Key = 0; Key < 8; Key += 2) {
    Set->insert(Key);
    Initial.push_back(Key);
  }
  constexpr unsigned Threads = 4;
  lin::HistoryRecorder Recorder(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      auto &Log = Recorder.threadLog(T);
      Xoshiro256 Rng(T + 17);
      Barrier.arriveAndWait();
      for (int I = 0; I != 4000; ++I) {
        const auto Key = static_cast<SetKey>(Rng.nextBounded(8));
        switch (Rng.nextBounded(3)) {
        case 0:
          lin::recordOp(
              Log, SetOp::Insert, Key,
              [&] { return Set->insert(Key); }, &nowNanos);
          break;
        case 1:
          lin::recordOp(
              Log, SetOp::Remove, Key,
              [&] { return Set->remove(Key); }, &nowNanos);
          break;
        default:
          lin::recordOp(
              Log, SetOp::Contains, Key,
              [&] { return Set->contains(Key); }, &nowNanos);
          break;
        }
      }
    });
  for (auto &Worker : Workers)
    Worker.join();
  const lin::LinResult Result =
      lin::checkSetHistory(Recorder.merged(), Initial);
  EXPECT_TRUE(Result.Ok) << Algo << ": " << Result.Message;
}

TEST(SplitOrderedHashSetTest, LinearizableHarrisMichaelHp) {
  checkLinearizable("so-hash-hm-hp-resize");
}
TEST(SplitOrderedHashSetTest, LinearizableHarrisMichaelResize) {
  checkLinearizable("so-hash-hm-resize");
}
TEST(SplitOrderedHashSetTest, LinearizableVblResize) {
  checkLinearizable("so-hash-vbl-resize");
}

} // namespace
