//===- tests/lists/ListBasicTest.cpp - Shared battery over all lists -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// One parameterized battery of single-threaded semantic tests that runs
/// over *every* algorithm in the registry: all of them implement the
/// same set type, so all must pass identically.
///
//===----------------------------------------------------------------------===//

#include "lists/SetInterface.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>

using namespace vbl;

namespace {

class AllListsTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    Set = makeSet(GetParam());
    ASSERT_NE(Set, nullptr) << "unknown algorithm " << GetParam();
  }

  std::unique_ptr<ConcurrentSet> Set;
};

} // namespace

TEST_P(AllListsTest, EmptySet) {
  EXPECT_FALSE(Set->contains(1));
  EXPECT_FALSE(Set->remove(1));
  EXPECT_TRUE(Set->snapshot().empty());
  EXPECT_TRUE(Set->checkInvariants());
}

TEST_P(AllListsTest, SingleElementLifecycle) {
  EXPECT_TRUE(Set->insert(10));
  EXPECT_TRUE(Set->contains(10));
  EXPECT_FALSE(Set->insert(10));
  EXPECT_TRUE(Set->remove(10));
  EXPECT_FALSE(Set->contains(10));
  EXPECT_FALSE(Set->remove(10));
  EXPECT_TRUE(Set->checkInvariants());
}

TEST_P(AllListsTest, SnapshotIsSorted) {
  for (SetKey Key : {42, 7, 19, 3, 77, 1})
    EXPECT_TRUE(Set->insert(Key));
  EXPECT_EQ(Set->snapshot(), (std::vector<SetKey>{1, 3, 7, 19, 42, 77}));
}

TEST_P(AllListsTest, ReinsertAfterRemove) {
  EXPECT_TRUE(Set->insert(5));
  EXPECT_TRUE(Set->remove(5));
  EXPECT_TRUE(Set->insert(5));
  EXPECT_TRUE(Set->contains(5));
  EXPECT_EQ(Set->snapshot(), (std::vector<SetKey>{5}));
}

TEST_P(AllListsTest, NeighbouringKeysAreIndependent) {
  EXPECT_TRUE(Set->insert(10));
  EXPECT_TRUE(Set->insert(11));
  EXPECT_TRUE(Set->insert(12));
  EXPECT_TRUE(Set->remove(11));
  EXPECT_TRUE(Set->contains(10));
  EXPECT_FALSE(Set->contains(11));
  EXPECT_TRUE(Set->contains(12));
}

TEST_P(AllListsTest, NegativeKeys) {
  EXPECT_TRUE(Set->insert(-100));
  EXPECT_TRUE(Set->insert(100));
  EXPECT_TRUE(Set->insert(0));
  EXPECT_EQ(Set->snapshot(), (std::vector<SetKey>{-100, 0, 100}));
  EXPECT_TRUE(Set->remove(-100));
  EXPECT_FALSE(Set->contains(-100));
}

TEST_P(AllListsTest, ExtremeUserKeys) {
  EXPECT_TRUE(Set->insert(MinSentinel + 1));
  EXPECT_TRUE(Set->insert(MaxSentinel - 1));
  EXPECT_TRUE(Set->contains(MinSentinel + 1));
  EXPECT_TRUE(Set->contains(MaxSentinel - 1));
  EXPECT_TRUE(Set->remove(MinSentinel + 1));
  EXPECT_TRUE(Set->remove(MaxSentinel - 1));
  EXPECT_TRUE(Set->checkInvariants());
}

TEST_P(AllListsTest, AscendingInsertDescendingRemove) {
  for (SetKey Key = 0; Key != 64; ++Key)
    EXPECT_TRUE(Set->insert(Key));
  for (SetKey Key = 63; Key >= 0; --Key)
    EXPECT_TRUE(Set->remove(Key));
  EXPECT_TRUE(Set->snapshot().empty());
  EXPECT_TRUE(Set->checkInvariants());
}

TEST_P(AllListsTest, DescendingInsertAscendingRemove) {
  // 10000 is more nodes than the flow view's FlowWalkCap (4096), and,
  // inserted descending, as many singleton chunks: checkInvariants()
  // and snapshot() walk the whole chain, so a capped walk fails both.
  for (SetKey N : {SetKey{64}, SetKey{10000}}) {
    for (SetKey Key = N - 1; Key >= 0; --Key)
      ASSERT_TRUE(Set->insert(Key)) << Key;
    EXPECT_TRUE(Set->checkInvariants()) << N;
    const std::vector<SetKey> Snap = Set->snapshot();
    ASSERT_EQ(Snap.size(), static_cast<size_t>(N));
    for (SetKey Key = 0; Key != N; ++Key)
      ASSERT_EQ(Snap[static_cast<size_t>(Key)], Key);
    for (SetKey Key = 0; Key != N; ++Key)
      ASSERT_TRUE(Set->remove(Key)) << Key;
    EXPECT_TRUE(Set->snapshot().empty());
  }
}

TEST_P(AllListsTest, DifferentialAgainstStdSet) {
  std::set<SetKey> Oracle;
  Xoshiro256 Rng(555);
  for (int I = 0; I != 10000; ++I) {
    const SetKey Key = static_cast<SetKey>(Rng.nextBounded(48));
    switch (Rng.nextBounded(3)) {
    case 0:
      ASSERT_EQ(Set->insert(Key), Oracle.insert(Key).second) << "op " << I;
      break;
    case 1:
      ASSERT_EQ(Set->remove(Key), Oracle.erase(Key) == 1) << "op " << I;
      break;
    default:
      ASSERT_EQ(Set->contains(Key), Oracle.count(Key) == 1) << "op " << I;
      break;
    }
  }
  EXPECT_EQ(Set->snapshot(),
            std::vector<SetKey>(Oracle.begin(), Oracle.end()));
  EXPECT_TRUE(Set->checkInvariants());
}

TEST_P(AllListsTest, NameMatchesRegistry) {
  EXPECT_EQ(Set->name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllListsTest, ::testing::ValuesIn(registeredSetNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });
