//===- tests/lin/LinCheckerTest.cpp - Linearizability checker tests ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "lin/LinChecker.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace vbl;
using namespace vbl::lin;

namespace {

/// Shorthand for building histories: op on key K over [Invoke,Response].
CompletedOp op(SetOp Kind, SetKey Key, bool Result, uint64_t Invoke,
               uint64_t Response, uint32_t Thread = 0) {
  return {Kind, Key, Result, Invoke, Response, Thread};
}

/// Applies \p O to the presence bit; false if its result contradicts it.
bool applyToPresence(const CompletedOp &O, bool &Present) {
  switch (O.Op) {
  case SetOp::Insert:
    if (O.Result == Present)
      return false;
    Present = true;
    return true;
  case SetOp::Remove:
    if (O.Result != Present)
      return false;
    Present = false;
    return true;
  case SetOp::Contains:
    return O.Result == Present;
  case SetOp::RangeQuery:
    return false;
  }
  return false;
}

/// The definition, by brute force: some permutation of \p Ops keeps
/// every real-time edge (A.Response < B.Invoke puts A first) and replays
/// each recorded result against one presence bit.
bool bruteForceLinearizable(const std::vector<CompletedOp> &Ops,
                            bool InitiallyPresent) {
  std::vector<size_t> Order(Ops.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  do {
    bool Ok = true;
    for (size_t I = 0; Ok && I != Order.size(); ++I)
      for (size_t J = I + 1; Ok && J != Order.size(); ++J)
        Ok = !(Ops[Order[J]].Response < Ops[Order[I]].Invoke);
    bool Present = InitiallyPresent;
    for (size_t I = 0; Ok && I != Order.size(); ++I)
      Ok = applyToPresence(Ops[Order[I]], Present);
    if (Ok)
      return true;
  } while (std::next_permutation(Order.begin(), Order.end()));
  return false;
}

/// A random single-key history of up to 6 ops on a coarse clock (so
/// intervals overlap and touch often). Half the draws replay a hidden
/// sequential order through the presence bit, so the linearizable side
/// is well populated; the rest draw every result at random.
std::vector<CompletedOp> randomHistory(Xoshiro256 &Rng, bool Present) {
  const size_t N = 1 + Rng.nextBounded(6);
  const bool Replay = Rng.nextBounded(2) == 0;
  std::vector<CompletedOp> Ops;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Invoke = Rng.nextBounded(12);
    uint64_t Response = Rng.nextBounded(12);
    if (Invoke > Response)
      std::swap(Invoke, Response);
    const auto Kind = static_cast<SetOp>(Rng.nextBounded(3));
    Ops.push_back(op(Kind, 1, Rng.nextBounded(2) == 1, Invoke, Response,
                     static_cast<uint32_t>(I)));
  }
  if (Replay) {
    // Results from replaying the ops in order of their interval
    // midpoints: a linearization that respects every real-time edge.
    std::vector<size_t> ByPoint(N);
    std::iota(ByPoint.begin(), ByPoint.end(), size_t{0});
    std::sort(ByPoint.begin(), ByPoint.end(), [&](size_t A, size_t B) {
      return Ops[A].Invoke + Ops[A].Response <
             Ops[B].Invoke + Ops[B].Response;
    });
    for (size_t I : ByPoint) {
      CompletedOp &O = Ops[I];
      O.Result = O.Op == SetOp::Insert ? !Present : Present;
      if (O.Op != SetOp::Contains)
        Present = O.Op == SetOp::Insert;
    }
  }
  return Ops;
}

} // namespace

TEST(LinChecker, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(checkSetHistory({}, {}).Ok);
  EXPECT_TRUE(checkSingleKeyHistory({}, false));
  EXPECT_TRUE(checkSingleKeyHistory({}, true));
}

TEST(LinChecker, SequentialCorrectHistory) {
  std::vector<CompletedOp> H = {
      op(SetOp::Insert, 1, true, 0, 1),
      op(SetOp::Contains, 1, true, 2, 3),
      op(SetOp::Remove, 1, true, 4, 5),
      op(SetOp::Contains, 1, false, 6, 7),
  };
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, SequentialWrongResultRejected) {
  // contains(1)=true before any insert is impossible.
  std::vector<CompletedOp> H = {
      op(SetOp::Contains, 1, true, 0, 1),
      op(SetOp::Insert, 1, true, 2, 3),
  };
  const LinResult R = checkSetHistory(H, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ViolatingKey, 1);
  EXPECT_FALSE(R.Message.empty());
}

TEST(LinChecker, InitialKeysRespected) {
  std::vector<CompletedOp> H = {
      op(SetOp::Contains, 5, true, 0, 1),
      op(SetOp::Insert, 5, false, 2, 3),
      op(SetOp::Remove, 5, true, 4, 5),
  };
  EXPECT_TRUE(checkSetHistory(H, {5}).Ok);
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, ConcurrentOpsMayReorder) {
  // contains(1)=true overlaps insert(1): linearize contains after.
  std::vector<CompletedOp> H = {
      op(SetOp::Contains, 1, true, 0, 10, 0),
      op(SetOp::Insert, 1, true, 1, 2, 1),
  };
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, RealTimeOrderIsBinding) {
  // contains(1)=true strictly BEFORE insert(1): no reordering allowed.
  std::vector<CompletedOp> H = {
      op(SetOp::Contains, 1, true, 0, 1, 0),
      op(SetOp::Insert, 1, true, 2, 3, 1),
  };
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, LostUpdateDetected) {
  // Two concurrent successful inserts of the same key: only one can
  // linearize first; the second must return false. Both true = lost
  // update (the paper's §2.2 example).
  std::vector<CompletedOp> H = {
      op(SetOp::Insert, 2, true, 0, 10, 0),
      op(SetOp::Insert, 2, true, 1, 9, 1),
  };
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, ConcurrentInsertsOneFails) {
  std::vector<CompletedOp> H = {
      op(SetOp::Insert, 2, true, 0, 10, 0),
      op(SetOp::Insert, 2, false, 1, 9, 1),
  };
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, ConcurrentRemoveInsertInterleaving) {
  // remove(3)=true, insert(3)=true concurrent. With 3 initially
  // present, the only order is remove-then-insert, so a later contains
  // must see true.
  std::vector<CompletedOp> H = {
      op(SetOp::Remove, 3, true, 0, 10, 0),
      op(SetOp::Insert, 3, true, 1, 9, 1),
      op(SetOp::Contains, 3, true, 20, 21, 0),
  };
  EXPECT_TRUE(checkSetHistory(H, {3}).Ok);
  H[2] = op(SetOp::Contains, 3, false, 20, 21, 0);
  EXPECT_FALSE(checkSetHistory(H, {3}).Ok);

  // With 3 initially absent the only order is insert-then-remove, so a
  // later contains must see false.
  H[2] = op(SetOp::Contains, 3, false, 20, 21, 0);
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
  H[2] = op(SetOp::Contains, 3, true, 20, 21, 0);
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, DoubleSuccessfulRemoveRejected) {
  std::vector<CompletedOp> H = {
      op(SetOp::Remove, 4, true, 0, 10, 0),
      op(SetOp::Remove, 4, true, 1, 9, 1),
  };
  EXPECT_FALSE(checkSetHistory(H, {4}).Ok);
}

TEST(LinChecker, KeysCheckedIndependently) {
  // Key 1 is fine; key 2 is violated. The checker must name key 2.
  std::vector<CompletedOp> H = {
      op(SetOp::Insert, 1, true, 0, 1),
      op(SetOp::Contains, 2, true, 2, 3),
  };
  const LinResult R = checkSetHistory(H, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ViolatingKey, 2);
}

TEST(LinChecker, ContainsFalseDuringPresenceWindowNeedsOverlap) {
  // Key present throughout [0,100]; a contains(5)=false fully inside
  // that window with no overlapping remove must be rejected.
  std::vector<CompletedOp> H = {
      op(SetOp::Insert, 5, true, 0, 1, 0),
      op(SetOp::Contains, 5, false, 10, 11, 1),
      op(SetOp::Remove, 5, true, 20, 21, 0),
  };
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);

  // But if the contains overlaps the remove, it may linearize after it.
  H[1] = op(SetOp::Contains, 5, false, 10, 25, 1);
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, LongToggleChain) {
  // Alternating sequential insert/remove with matching results: valid
  // and must complete fast (exercises the sliding-window memoization).
  std::vector<CompletedOp> H;
  uint64_t T = 0;
  for (int I = 0; I != 2000; ++I) {
    H.push_back(op(SetOp::Insert, 9, true, T, T + 1));
    T += 2;
    H.push_back(op(SetOp::Remove, 9, true, T, T + 1));
    T += 2;
  }
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, WideConcurrencyWithinWindow) {
  // 16 concurrent inserts of one absent key, exactly one reporting
  // true: linearizable, and exercises a wide frontier.
  std::vector<CompletedOp> H;
  for (uint32_t T = 0; T != 16; ++T)
    H.push_back(op(SetOp::Insert, 7, T == 9, 0, 100, T));
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);

  // Two winners: not linearizable.
  H[0].Result = true;
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, UnorderedInputIsSorted) {
  std::vector<CompletedOp> H = {
      op(SetOp::Remove, 1, true, 4, 5),
      op(SetOp::Insert, 1, true, 0, 1),
  };
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, DecomposeScansCoversWindowOnly) {
  // One scan over [2, 6] of universe {1, 2, 4, 6, 9} reporting {2, 6}:
  // one Contains observation per in-window universe key, true iff
  // reported, all carrying the scan's interval and thread.
  CompletedScan Scan;
  Scan.Lo = 2;
  Scan.Hi = 6;
  Scan.Keys = {2, 6};
  Scan.Invoke = 10;
  Scan.Response = 20;
  Scan.Thread = 3;
  const std::vector<CompletedOp> Obs =
      decomposeScans({Scan}, {1, 2, 4, 6, 9});
  ASSERT_EQ(Obs.size(), 3u);
  for (const CompletedOp &O : Obs) {
    EXPECT_EQ(O.Op, SetOp::Contains);
    EXPECT_EQ(O.Invoke, 10u);
    EXPECT_EQ(O.Response, 20u);
    EXPECT_EQ(O.Thread, 3u);
    EXPECT_EQ(O.Result, O.Key == 2 || O.Key == 6);
  }
}

TEST(LinChecker, ScanObservationsLinearizable) {
  // insert(5) during [0, 10]; a scan over [1, 9] during [5, 15] that
  // reported 5 linearizes (scan after insert). A scan that reported
  // the key while strictly preceding the insert cannot.
  std::vector<CompletedOp> H = {op(SetOp::Insert, 5, true, 0, 10)};
  CompletedScan Scan;
  Scan.Lo = 1;
  Scan.Hi = 9;
  Scan.Keys = {5};
  Scan.Invoke = 5;
  Scan.Response = 15;
  Scan.Thread = 1;
  for (CompletedOp &O : decomposeScans({Scan}, {5}))
    H.push_back(O);
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);

  H.clear();
  H.push_back(op(SetOp::Insert, 5, true, 20, 30));
  Scan.Invoke = 5;
  Scan.Response = 15; // Entirely before the insert, yet saw the key.
  for (CompletedOp &O : decomposeScans({Scan}, {5}))
    H.push_back(O);
  EXPECT_FALSE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, ScanTornWindowRejected) {
  // Initial {2, 6}. One thread removes 2 then inserts back 6's
  // neighbor-window state... simplest torn case: a scan over [1, 9]
  // that reports {6} but omits 2 while NO operation on 2 overlaps it:
  // the omission of 2 cannot be justified at any point in the scan.
  std::vector<CompletedOp> H;
  CompletedScan Scan;
  Scan.Lo = 1;
  Scan.Hi = 9;
  Scan.Keys = {6};
  Scan.Invoke = 40;
  Scan.Response = 50;
  Scan.Thread = 0;
  for (CompletedOp &O : decomposeScans({Scan}, {2, 6}))
    H.push_back(O);
  EXPECT_FALSE(checkSetHistory(H, {2, 6}).Ok);

  // With a concurrent remove(2) the same scan result linearizes.
  H.push_back(op(SetOp::Remove, 2, true, 35, 55, 1));
  EXPECT_TRUE(checkSetHistory(H, {2, 6}).Ok);
}

TEST(LinChecker, ScanOutputDuplicateRejected) {
  // A scan over [1, 9] of initial {2, 6} that reported 2 twice, as a
  // restart that kept its partial collect would. The per-key lowering
  // reads the keys through a set, so the history passes it; the output
  // check is what refuses it.
  CompletedScan Scan;
  Scan.Lo = 1;
  Scan.Hi = 9;
  Scan.Keys = {2, 2, 6};
  Scan.Invoke = 10;
  Scan.Response = 20;
  Scan.Thread = 0;
  std::vector<CompletedOp> H;
  for (CompletedOp &O : decomposeScans({Scan}, {2, 6}))
    H.push_back(O);
  EXPECT_TRUE(checkSetHistory(H, {2, 6}).Ok);
  EXPECT_NE(scanOutputError(Scan.Lo, Scan.Hi, Scan.Keys, 3), "");

  // The well-formed output passes; so does an empty one.
  EXPECT_EQ(scanOutputError(1, 9, {2, 6}, 2), "");
  EXPECT_EQ(scanOutputError(1, 9, {}, 0), "");
  // Descending, outside the window, or a count that disagrees: refused.
  EXPECT_NE(scanOutputError(1, 9, {6, 2}, 2), "");
  EXPECT_NE(scanOutputError(1, 9, {0, 2}, 2), "");
  EXPECT_NE(scanOutputError(1, 9, {2, 10}, 2), "");
  EXPECT_NE(scanOutputError(1, 9, {2, 6}, 3), "");
}

TEST(LinChecker, RawRangeQueryRecordRejected) {
  // A RangeQuery record that bypassed decomposeScans must fail the
  // check loudly rather than be misinterpreted.
  std::vector<CompletedOp> H = {op(SetOp::RangeQuery, 3, true, 0, 1)};
  EXPECT_FALSE(checkSetHistory(H, {3}).Ok);
}

TEST(LinChecker, MemoCollisionShapeAccepted) {
  // Regression for the memo key. The search once remembered failed
  // states by a 64-bit fold of (Frontier, Holes, Present), under which
  // (F, {h}, present) and (F, {h^1}, absent) collide for even F. Here
  // (4, {1}, absent) fails first, and the live (4, {0}, present) was
  // then pruned as already explored, so this linearizable history
  // (insert, contains=true, remove, contains=false) was rejected.
  const std::vector<CompletedOp> H = {
      op(SetOp::Remove, 1, true, 0, 7, 0),
      op(SetOp::Contains, 1, true, 3, 6, 1),
      op(SetOp::Contains, 1, false, 4, 6, 2),
      op(SetOp::Insert, 1, true, 5, 7, 3),
  };
  ASSERT_TRUE(bruteForceLinearizable(H, false));
  EXPECT_TRUE(checkSingleKeyHistory(H, false));
  EXPECT_TRUE(checkSetHistory(H, {}).Ok);
}

TEST(LinChecker, AgreesWithBruteForceOracle) {
  // Differential self-test: on small single-key histories the memoized
  // search must give exactly the brute-force verdict, both ways.
  Xoshiro256 Rng(2024);
  size_t Accepted = 0;
  size_t Rejected = 0;
  for (int Trial = 0; Trial != 4000; ++Trial) {
    const bool Present = Rng.nextBounded(2) == 1;
    const std::vector<CompletedOp> H = randomHistory(Rng, Present);
    const bool Expected = bruteForceLinearizable(H, Present);
    ASSERT_EQ(checkSingleKeyHistory(H, Present), Expected)
        << "trial " << Trial << ", " << H.size() << " ops";
    ++(Expected ? Accepted : Rejected);
  }
  // Both verdicts must be well exercised for the agreement to mean much.
  EXPECT_GT(Accepted, 1000u);
  EXPECT_GT(Rejected, 1000u);
}
