//===- tests/reclaim/LeakyDomainTest.cpp - Retire-log domain tests -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "reclaim/LeakyDomain.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace vbl;
using namespace vbl::reclaim;

namespace {

struct Tracked {
  explicit Tracked(std::atomic<int> &Counter) : Counter(Counter) {}
  ~Tracked() { Counter.fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int> &Counter;
};

void keep(void *) {}

} // namespace

TEST(LeakyDomain, NothingFreedDuringRun) {
  std::atomic<int> Destroyed{0};
  {
    LeakyDomain Domain;
    Domain.retire(new Tracked(Destroyed));
    Domain.collectAll();
    EXPECT_EQ(Destroyed.load(), 0);
    EXPECT_EQ(Domain.retiredCount(), 1u);
  }
  EXPECT_EQ(Destroyed.load(), 1) << "destructor frees exactly once";
}

TEST(LeakyDomain, DetectsDoubleRetire) {
  // The destructor runs one deleter per logged retiree, so the object
  // is retired with a no-op deleter: a real one would free it twice.
  std::atomic<int> Destroyed{0};
  Tracked Object(Destroyed);
  LeakyDomain Domain;
  Domain.retireRaw(&Object, keep);
  EXPECT_FALSE(Domain.sawDoubleRetire());
  Domain.retireRaw(&Object, keep);
  EXPECT_TRUE(Domain.sawDoubleRetire());
}

TEST(LeakyDomain, ManyDistinctRetires) {
  std::atomic<int> Destroyed{0};
  {
    LeakyDomain Domain;
    for (int I = 0; I != 100; ++I)
      Domain.retire(new Tracked(Destroyed));
    EXPECT_FALSE(Domain.sawDoubleRetire());
    EXPECT_EQ(Domain.retiredCount(), 100u);
  }
  EXPECT_EQ(Destroyed.load(), 100);
}
