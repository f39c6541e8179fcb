//===- tests/reclaim/AllocationCountTest.cpp - Heap allocation counts -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Exact heap allocation counts of two paths that should allocate little
/// or nothing:
///
///  - building a set: a reclamation domain allocates its thread records
///    a block of 8 at a time as threads attach (reclaim::RecordTable),
///    so makeSet plus one insert costs one block, not 512 records;
///  - a batch-1 session's enqueue + takeCompleted round: the session
///    swaps two completion buffers, so a warm take allocates nothing.
///
/// This binary replaces the global operator new and delete with
/// malloc-backed versions that count calls and bytes on the calling
/// thread while an AllocationCount scope is open on it, and pass
/// straight through everywhere else.
///
//===----------------------------------------------------------------------===//

#include "lists/SetInterface.h"
#include "service/ShardedSet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

using namespace vbl;
using namespace vbl::service;

namespace {

struct Tally {
  bool Active = false;
  uint64_t Calls = 0;
  uint64_t Bytes = 0;
};

thread_local Tally ThreadTally;

void *countedAlloc(std::size_t Bytes, std::size_t Align) {
  if (ThreadTally.Active) {
    ++ThreadTally.Calls;
    ThreadTally.Bytes += Bytes;
  }
  if (Bytes == 0)
    Bytes = 1;
  void *Ptr = Align <= alignof(std::max_align_t)
                  ? std::malloc(Bytes)
                  : std::aligned_alloc(Align, (Bytes + Align - 1) / Align *
                                                  Align);
  if (!Ptr)
    throw std::bad_alloc();
  return Ptr;
}

/// Counts the global operator new calls the calling thread makes while
/// the scope is open.
class AllocationCount {
public:
  AllocationCount() { ThreadTally = {true, 0, 0}; }
  ~AllocationCount() { ThreadTally.Active = false; }

  AllocationCount(const AllocationCount &) = delete;
  AllocationCount &operator=(const AllocationCount &) = delete;

  uint64_t calls() const { return ThreadTally.Calls; }
  uint64_t bytes() const { return ThreadTally.Bytes; }
};

} // namespace

// The array forms of new and delete default to these.
void *operator new(std::size_t Bytes) {
  return countedAlloc(Bytes, alignof(std::max_align_t));
}
void *operator new(std::size_t Bytes, std::align_val_t Align) {
  return countedAlloc(Bytes, static_cast<std::size_t>(Align));
}
void operator delete(void *Ptr) noexcept { std::free(Ptr); }
void operator delete(void *Ptr, std::size_t) noexcept { std::free(Ptr); }
void operator delete(void *Ptr, std::align_val_t) noexcept {
  std::free(Ptr);
}
void operator delete(void *Ptr, std::size_t, std::align_val_t) noexcept {
  std::free(Ptr);
}

namespace {

/// Bytes the calling thread allocates building \p Name and inserting one
/// key. A first build and insert beforehand warms what a fresh process
/// pays once (the node pool's arena and this thread's cache, the domain
/// registry's tables), so the count is the set's own.
uint64_t bytesToBuildAndInsert(const std::string &Name) {
  {
    std::unique_ptr<ConcurrentSet> Warm = makeSet(Name);
    EXPECT_TRUE(Warm->insert(1));
  }
  uint64_t Bytes = 0;
  std::unique_ptr<ConcurrentSet> Set;
  {
    AllocationCount Count;
    Set = makeSet(Name);
    EXPECT_TRUE(Set->insert(1));
    Bytes = Count.bytes();
  }
  return Bytes;
}

} // namespace

// A domain used by one thread allocates one record block: 512 B for
// EBR, 1 KiB for VBR and HP, against 32-64 KiB for all 512 records.
TEST(AllocationCount, BuildingASetAllocatesOneRecordBlock) {
  for (const char *Name : {"vbl", "vbl-vbr", "harris-michael-hp"}) {
    const uint64_t Bytes = bytesToBuildAndInsert(Name);
    // Nonzero: the set object itself, so the counter is counting.
    EXPECT_GT(Bytes, 0u) << Name;
    EXPECT_LT(Bytes, 4096u) << Name;
    RecordProperty(std::string(Name) + "_bytes", std::to_string(Bytes));
  }
}

// Each take hands back the buffer the flushes filled and keeps the one
// the previous take returned for the next flushes, so once both have
// grown no round allocates.
TEST(AllocationCount, BatchOneTakesAllocateNothingWhenWarm) {
  ShardedSet::Options Opts;
  Opts.Backend = "vbl";
  Opts.Shards = 4;
  Opts.BatchSize = 1;
  std::unique_ptr<ShardedSet> Front = ShardedSet::create(Opts);
  ASSERT_TRUE(Front);
  for (SetKey Key = 0; Key < 64; Key += 2)
    ASSERT_TRUE(Front->insert(Key));
  ShardedSet::Session Session = Front->openSession();
  constexpr unsigned Rounds = 1000;
  auto Round = [&](unsigned I) {
    const SetKey Key = I % 64;
    Session.enqueue(SetOp::Contains, Key, I);
    const std::vector<BatchOp> &Done = Session.takeCompleted();
    ASSERT_EQ(Done.size(), 1u);
    EXPECT_EQ(Done[0].Tag, I);
    EXPECT_EQ(Done[0].Result, Key % 2 == 0);
  };
  for (unsigned I = 0; I != 8; ++I)
    Round(I);
  uint64_t Calls = 0;
  {
    AllocationCount Count;
    for (unsigned I = 0; I != Rounds; ++I)
      Round(I);
    Calls = Count.calls();
  }
  EXPECT_EQ(Calls, 0u);
}
