//===- tests/harness/HarnessTest.cpp - Workload/runner/printer tests -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/Runner.h"
#include "harness/TablePrinter.h"
#include "harness/Workload.h"

#include <gtest/gtest.h>

using namespace vbl;
using namespace vbl::harness;

TEST(OpPicker, ZeroUpdatesIsAllContains) {
  OpPicker Picker(0);
  Xoshiro256 Rng(1);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(Picker.pick(Rng), SetOp::Contains);
}

TEST(OpPicker, HundredUpdatesHasNoContains) {
  OpPicker Picker(100);
  Xoshiro256 Rng(2);
  int Inserts = 0, Removes = 0;
  for (int I = 0; I != 100000; ++I) {
    const SetOp Op = Picker.pick(Rng);
    ASSERT_NE(Op, SetOp::Contains);
    Inserts += Op == SetOp::Insert;
    Removes += Op == SetOp::Remove;
  }
  // Paper's split: x/2 insert, x/2 remove.
  EXPECT_NEAR(Inserts, 50000, 1500);
  EXPECT_NEAR(Removes, 50000, 1500);
}

TEST(OpPicker, TwentyPercentSplit) {
  OpPicker Picker(20);
  Xoshiro256 Rng(3);
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I != 100000; ++I)
    ++Counts[static_cast<int>(Picker.pick(Rng))];
  EXPECT_NEAR(Counts[static_cast<int>(SetOp::Insert)], 10000, 700);
  EXPECT_NEAR(Counts[static_cast<int>(SetOp::Remove)], 10000, 700);
  EXPECT_NEAR(Counts[static_cast<int>(SetOp::Contains)], 80000, 1500);
}

TEST(OpPicker, OddUpdatePercentSplitsEvenly) {
  // Regression: pick() used to reuse the percent roll for the
  // insert/remove split ("Roll * 2 < UpdatePercent"), which at x=5
  // sent update rolls {0,1,2} to insert and {3,4} to remove — a 3:2
  // bias that unbalanced the workload's steady-state set size. With an
  // independent fair coin |inserts - removes| stays within noise.
  OpPicker Picker(5);
  Xoshiro256 Rng(4);
  int Inserts = 0, Removes = 0, Contains = 0;
  constexpr int Trials = 200000;
  for (int I = 0; I != Trials; ++I) {
    switch (Picker.pick(Rng)) {
    case SetOp::Insert:
      ++Inserts;
      break;
    case SetOp::Remove:
      ++Removes;
      break;
    case SetOp::Contains:
      ++Contains;
      break;
    case SetOp::RangeQuery:
      vbl_unreachable("OpPicker yields point ops only");
    }
  }
  EXPECT_EQ(Inserts + Removes + Contains, Trials);
  const int Updates = Inserts + Removes;
  // Binomial(200000, 0.05): 10000 with sigma ~98; 600 is ~6 sigma.
  EXPECT_NEAR(Updates, Trials / 20, 600);
  // Fair split: I - R has sigma = sqrt(Updates) ~= 100, so 400 is
  // 4 sigma. The old skew put the difference near Updates/5 = 2000.
  EXPECT_NEAR(Inserts - Removes, 0, 400);
}

TEST(Prefill, HalfDensity) {
  auto Set = makeSet("vbl");
  const size_t Inserted = prefill(*Set, 2000, 9);
  EXPECT_EQ(Set->snapshot().size(), Inserted);
  // Binomial(2000, 0.5): 1000 +- ~100 is > 4 sigma.
  EXPECT_NEAR(static_cast<double>(Inserted), 1000.0, 100.0);
}

TEST(Prefill, DeterministicForSeed) {
  auto A = makeSet("vbl");
  auto B = makeSet("lazy");
  prefill(*A, 500, 77);
  prefill(*B, 500, 77);
  EXPECT_EQ(A->snapshot(), B->snapshot())
      << "same seed must give identical initial sets across algorithms";
}

TEST(Runner, ProducesPlausibleThroughput) {
  WorkloadConfig Config;
  Config.UpdatePercent = 20;
  Config.KeyRange = 64;
  Config.Threads = 2;
  Config.DurationMs = 30;
  Config.WarmupMs = 5;
  auto Set = makeSet("vbl");
  prefill(*Set, Config.KeyRange, 1);
  const RunResult Result = runOnce(*Set, Config);
  EXPECT_TRUE(Result.InvariantsHeld);
  EXPECT_GT(Result.TotalOps, 1000u);
  EXPECT_GT(Result.OpsPerSecond, 0.0);
  EXPECT_NEAR(Result.Seconds, 0.030, 0.050);
}

namespace {

/// An op source that only inserts, drawing keys from [0, 8).
struct InsertLowKeys {
  SetOp operator()(ConcurrentSet &Set, Xoshiro256 &Rng) const {
    return applyOp(Set, SetOp::Insert,
                   static_cast<SetKey>(Rng.nextBounded(8)));
  }
};

WorkloadConfig shortWindow(unsigned Threads) {
  WorkloadConfig Config;
  Config.Threads = Threads;
  Config.DurationMs = 20;
  Config.WarmupMs = 5;
  return Config;
}

} // namespace

TEST(Runner, RunsACustomOpSource) {
  auto Set = makeSet("vbl");
  const RunResult Result = runOnce(*Set, shortWindow(2), InsertLowKeys{});
  EXPECT_TRUE(Result.InvariantsHeld);
  EXPECT_GT(Result.TotalOps, 0u);
  EXPECT_EQ(Set->snapshot(), (std::vector<SetKey>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Runner, LatencyRunTimesOnlyTheSourcesOps) {
  auto Set = makeSet("vbl");
  LatencyProfile Profile;
  const RunResult Result =
      runOnce(*Set, shortWindow(2), InsertLowKeys{}, &Profile);
  EXPECT_TRUE(Result.InvariantsHeld);
  EXPECT_FALSE(Profile.Insert.empty());
  EXPECT_TRUE(Profile.Remove.empty());
  EXPECT_TRUE(Profile.Contains.empty());
}

TEST(Runner, LatencyRunCountsOpsPastTheSampleCap) {
  // Contains on a tiny set: a 100 ms window runs far more ops than one
  // worker keeps samples for. Throughput must count every measured op,
  // not only the timed ones that were kept.
  WorkloadConfig Config;
  Config.UpdatePercent = 0;
  Config.KeyRange = 4;
  Config.Threads = 1;
  Config.DurationMs = 100;
  Config.WarmupMs = 0;
  auto Set = makeSet("vbl");
  prefill(*Set, Config.KeyRange, 1);
  LatencyProfile Profile;
  const RunResult Result = runOnce(*Set, Config, &Profile);
  EXPECT_TRUE(Profile.Insert.empty());
  EXPECT_TRUE(Profile.Remove.empty());
  const size_t Kept = Profile.Contains.count();
  ASSERT_LE(Kept, MaxLatencySamplesPerOp);
  if (Kept == MaxLatencySamplesPerOp)
    EXPECT_GT(Result.TotalOps, Kept);
  else
    EXPECT_EQ(Result.TotalOps, Kept);
}

TEST(Runner, MeasureAlgorithmCollectsRepeats) {
  WorkloadConfig Config;
  Config.UpdatePercent = 50;
  Config.KeyRange = 32;
  Config.Threads = 1;
  Config.DurationMs = 10;
  Config.WarmupMs = 2;
  Config.Repeats = 3;
  const SampleStats Stats = measureAlgorithm("coarse", Config);
  EXPECT_EQ(Stats.count(), 3u);
  EXPECT_GT(Stats.mean(), 0.0);
}

TEST(Panel, Means) {
  Panel P("unit", {"a", "b"}, {1, 2});
  SampleStats SA, SB;
  SA.add(2e6);
  SB.add(1e6);
  P.setResult(1, "a", SA);
  P.setResult(1, "b", SB);
  EXPECT_DOUBLE_EQ(P.mean(1, "a"), 2e6);
  EXPECT_DOUBLE_EQ(P.mean(1, "b"), 1e6);
}
