//===- tests/harness/SampleStatsTest.cpp - SampleStats unit tests --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/SampleStats.h"

#include <gtest/gtest.h>

using namespace vbl;

TEST(SampleStats, MeanOfKnownSamples) {
  SampleStats Stats;
  for (double S : {1.0, 2.0, 3.0, 4.0})
    Stats.add(S);
  EXPECT_DOUBLE_EQ(Stats.mean(), 2.5);
  EXPECT_EQ(Stats.count(), 4u);
}

TEST(SampleStats, StddevOfKnownSamples) {
  SampleStats Stats;
  for (double S : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    Stats.add(S);
  // Sample stddev of this classic example is sqrt(32/7).
  EXPECT_NEAR(Stats.stddev(), 2.13808993, 1e-6);
}

TEST(SampleStats, StddevOfSingleSampleIsZero) {
  SampleStats Stats;
  Stats.add(42.0);
  EXPECT_DOUBLE_EQ(Stats.stddev(), 0.0);
}

TEST(SampleStats, MinMax) {
  SampleStats Stats;
  for (double S : {3.0, -1.0, 7.5, 2.0})
    Stats.add(S);
  EXPECT_DOUBLE_EQ(Stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(Stats.max(), 7.5);
}

TEST(SampleStats, PercentileEndpoints) {
  SampleStats Stats;
  for (double S : {10.0, 20.0, 30.0, 40.0})
    Stats.add(S);
  EXPECT_DOUBLE_EQ(Stats.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(Stats.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(Stats.percentile(50), 25.0);
}

TEST(SampleStats, PercentileInterpolates) {
  SampleStats Stats;
  for (double S : {0.0, 10.0})
    Stats.add(S);
  EXPECT_DOUBLE_EQ(Stats.percentile(25), 2.5);
  EXPECT_DOUBLE_EQ(Stats.percentile(75), 7.5);
}

TEST(SampleStats, ClearResets) {
  SampleStats Stats;
  Stats.add(1.0);
  Stats.clear();
  EXPECT_TRUE(Stats.empty());
  Stats.add(5.0);
  EXPECT_DOUBLE_EQ(Stats.mean(), 5.0);
}

TEST(SampleStats, UnsortedInputPercentile) {
  SampleStats Stats;
  for (double S : {9.0, 1.0, 5.0})
    Stats.add(S);
  EXPECT_DOUBLE_EQ(Stats.percentile(50), 5.0);
}
