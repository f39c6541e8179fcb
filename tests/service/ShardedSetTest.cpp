//===- tests/service/ShardedSetTest.cpp - Front-end correctness ----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Correctness of the sharded serving front-end across its access
/// disciplines (direct / batched / flat-combined) and a spread of
/// backends (flat VBL over VBR, the chunked list, and the split-ordered
/// hash over VBL+VBR; combining also over the two lists whose reads
/// take locks, the only backends that combine):
///
///  - sequential differential: session-routed ops vs std::set, with
///    results checked in completion order (batch flushes included);
///  - same-key FIFO inside a batch: the sorted apply path must keep
///    submission order for equal keys;
///  - concurrent per-key linearizability: recorded histories where a
///    batched op's interval is widened to [enqueue, flush-return] —
///    its linearization point provably lies inside — checked by the
///    lin engine, including a run where sessions past the combiner's
///    slot array apply directly while the others combine;
///  - combiner slots: returned on close or destruction, handed over by
///    a move, and reused by later sessions;
///  - which backends combine: exactly those whose reads take locks;
///  - the registry suggestion path for unknown backend names.
///
//===----------------------------------------------------------------------===//

#include "service/ShardedSet.h"

#include "lin/LinChecker.h"
#include "stats/Stats.h"
#include "support/Barrier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace vbl;
using namespace vbl::service;

namespace {

const char *const Backends[] = {"vbl-vbr", "vbl-chunk",
                                "so-hash-vbl-vbr-resize"};

/// The backends whose reads take locks: under CombineMode::On only
/// these run through the combiner, so the combining suites add them.
const char *const CombiningBackends[] = {"coarse", "hand-over-hand"};

ShardedSet::Options options(const std::string &Backend, unsigned Shards,
                            unsigned Batch, CombineMode Mode) {
  ShardedSet::Options Opts;
  Opts.Backend = Backend;
  Opts.Shards = Shards;
  Opts.BatchSize = Batch;
  Opts.Combine = Mode;
  return Opts;
}

std::unique_ptr<ShardedSet> mustCreate(const ShardedSet::Options &Opts) {
  std::string Error;
  auto Front = ShardedSet::create(Opts, &Error);
  EXPECT_NE(Front, nullptr) << Error;
  return Front;
}

//===--------------------------------------------------------------===//
// Sequential differential vs std::set
//===--------------------------------------------------------------===//

// Single session, random ops through enqueue/flush. The front-end
// serializes everything (one thread), so replaying completed ops
// against std::set in completion order must reproduce every Result
// bit-exactly; snapshot() must equal the model at the end.
void sequentialDifferential(const std::string &Backend, unsigned Batch,
                            CombineMode Mode) {
  auto Front = mustCreate(options(Backend, 4, Batch, Mode));
  ShardedSet::Session Session = Front->openSession();
  std::set<SetKey> Model;
  Xoshiro256 Rng(2024);
  for (int I = 0; I != 6000; ++I) {
    const auto Key = static_cast<SetKey>(Rng.nextBounded(64));
    const unsigned Kind = static_cast<unsigned>(Rng.nextBounded(3));
    const SetOp Op = Kind == 0   ? SetOp::Insert
                     : Kind == 1 ? SetOp::Remove
                                 : SetOp::Contains;
    Session.enqueue(Op, Key);
    if (Rng.nextBounded(16) == 0)
      Session.flush();
    for (const BatchOp &Done : Session.takeCompleted()) {
      bool Expected = false;
      switch (Done.Op) {
      case SetOp::Insert:
        Expected = Model.insert(Done.Key).second;
        break;
      case SetOp::Remove:
        Expected = Model.erase(Done.Key) != 0;
        break;
      case SetOp::Contains:
        Expected = Model.count(Done.Key) != 0;
        break;
      case SetOp::RangeQuery:
        ADD_FAILURE() << "scan pieces must not reach takeCompleted()";
        continue;
      }
      ASSERT_EQ(Done.Result, Expected)
          << Backend << " op " << I << " key " << Done.Key;
    }
  }
  Session.flush();
  for (const BatchOp &Done : Session.takeCompleted()) {
    bool Expected = false;
    switch (Done.Op) {
    case SetOp::Insert:
      Expected = Model.insert(Done.Key).second;
      break;
    case SetOp::Remove:
      Expected = Model.erase(Done.Key) != 0;
      break;
    case SetOp::Contains:
      Expected = Model.count(Done.Key) != 0;
      break;
    case SetOp::RangeQuery:
      ADD_FAILURE() << "scan pieces must not reach takeCompleted()";
      continue;
    }
    ASSERT_EQ(Done.Result, Expected);
  }
  EXPECT_EQ(Session.pendingOps(), 0u);
  EXPECT_TRUE(Front->checkInvariants()) << Backend;
  EXPECT_EQ(Front->snapshot(),
            std::vector<SetKey>(Model.begin(), Model.end()))
      << Backend;
}

TEST(ShardedSetTest, SequentialDifferentialBatched) {
  for (const char *Backend : Backends)
    sequentialDifferential(Backend, 8, CombineMode::Off);
}

TEST(ShardedSetTest, SequentialDifferentialPerOp) {
  for (const char *Backend : Backends)
    sequentialDifferential(Backend, 1, CombineMode::Off);
}

TEST(ShardedSetTest, SequentialDifferentialCombining) {
  for (const char *Backend : Backends)
    sequentialDifferential(Backend, 8, CombineMode::On);
  for (const char *Backend : CombiningBackends)
    sequentialDifferential(Backend, 8, CombineMode::On);
}

// Same-key ops inside one batch must apply in submission order: the
// shard adapter's sort is stable, so insert/remove/insert/contains on
// one key resolves like the sequential program.
TEST(ShardedSetTest, SameKeyFifoWithinBatch) {
  for (const char *Backend : Backends) {
    auto Front = mustCreate(
        options(Backend, 1, 8, CombineMode::Off)); // 1 shard: one batch
    ShardedSet::Session Session = Front->openSession();
    const SetKey Key = 7;
    Session.enqueue(SetOp::Insert, Key);
    Session.enqueue(SetOp::Remove, Key);
    Session.enqueue(SetOp::Insert, Key);
    Session.enqueue(SetOp::Contains, Key);
    // Interleave a second key to prove sorting doesn't reorder the
    // same-key subsequence.
    Session.enqueue(SetOp::Insert, 3);
    Session.flush();
    const std::vector<BatchOp> Done = Session.takeCompleted();
    ASSERT_EQ(Done.size(), 5u) << Backend;
    EXPECT_TRUE(Done[0].Result) << Backend;  // insert into empty
    EXPECT_TRUE(Done[1].Result) << Backend;  // remove it
    EXPECT_TRUE(Done[2].Result) << Backend;  // insert again
    EXPECT_TRUE(Done[3].Result) << Backend;  // present
    EXPECT_TRUE(Done[4].Result) << Backend;
    EXPECT_EQ(Front->snapshot(), (std::vector<SetKey>{3, Key}));
  }
}

// The ConcurrentSet face routes per-op; the routing invariant in
// checkInvariants verifies every stored key hashes to its shard.
TEST(ShardedSetTest, DirectInterfaceAndRouting) {
  auto Front = mustCreate(options("vbl", 8, 1, CombineMode::Off));
  std::set<SetKey> Model;
  Xoshiro256 Rng(5);
  for (int I = 0; I != 2000; ++I) {
    const auto Key = static_cast<SetKey>(Rng.nextBounded(128));
    if (Rng.nextBounded(2)) {
      ASSERT_EQ(Front->insert(Key), Model.insert(Key).second);
    } else {
      ASSERT_EQ(Front->remove(Key), Model.erase(Key) != 0);
    }
  }
  EXPECT_TRUE(Front->checkInvariants());
  EXPECT_EQ(Front->snapshot(),
            std::vector<SetKey>(Model.begin(), Model.end()));
}

//===--------------------------------------------------------------===//
// Concurrent per-key linearizability
//===--------------------------------------------------------------===//

// Batched ops: interval = [enqueue, flush-return]. The op's actual
// linearization (inside the backend during the flush) lies within, so
// if the widened history linearizes per key, so does the execution.
// With \p MixDirect, idle sessions held open for the whole run take
// all but Threads/2 of the combiner's slots first, so half the workers
// get a slot and combine while the other half run past the slot array,
// straight into the backend, on the same shards at the same time.
void concurrentLincheck(const std::string &Backend, unsigned Batch,
                        CombineMode Mode, bool MixDirect = false) {
  auto Front = mustCreate(options(Backend, 2, Batch, Mode));
  std::vector<SetKey> Initial;
  for (SetKey Key = 0; Key < 8; Key += 2) {
    Front->insert(Key);
    Initial.push_back(Key);
  }
  constexpr unsigned Threads = 4;
  std::vector<ShardedSet::Session> Idle;
  if (MixDirect)
    for (unsigned I = 0; I != ShardedSet::CombinerSlots - Threads / 2; ++I)
      Idle.push_back(Front->openSession());
  const stats::Snapshot Before = stats::snapshotAll();
  lin::HistoryRecorder Recorder(Threads);
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      auto &Log = Recorder.threadLog(T);
      ShardedSet::Session Session = Front->openSession();
      Xoshiro256 Rng(T + 91);
      Barrier.arriveAndWait();
      const auto Drain = [&] {
        const uint64_t Response = lin::fencedStamp();
        for (const BatchOp &Done : Session.takeCompleted())
          Log.record(Done.Op, Done.Key, Done.Result, Done.Tag,
                     Response);
      };
      for (int I = 0; I != 3000; ++I) {
        const auto Key = static_cast<SetKey>(Rng.nextBounded(8));
        const unsigned Kind = static_cast<unsigned>(Rng.nextBounded(3));
        const SetOp Op = Kind == 0   ? SetOp::Insert
                         : Kind == 1 ? SetOp::Remove
                                     : SetOp::Contains;
        Session.enqueue(Op, Key, lin::fencedStamp());
        Drain();
      }
      Session.flush();
      Drain();
    });
  for (auto &Worker : Workers)
    Worker.join();
  if (MixDirect && stats::Enabled) {
    const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
    EXPECT_GT(Delta.get(stats::Counter::ServiceOpsDirect), 0u) << Backend;
    EXPECT_GT(Delta.get(stats::Counter::ServiceOpsCombined), 0u)
        << Backend;
  }
  EXPECT_TRUE(Front->checkInvariants()) << Backend;
  const lin::LinResult Result =
      lin::checkSetHistory(Recorder.merged(), Initial);
  EXPECT_TRUE(Result.Ok) << Backend << ": " << Result.Message;
}

TEST(ShardedSetTest, LinearizableBatched) {
  for (const char *Backend : Backends)
    concurrentLincheck(Backend, 4, CombineMode::Off);
}

TEST(ShardedSetTest, LinearizableCombining) {
  for (const char *Backend : Backends)
    concurrentLincheck(Backend, 4, CombineMode::On);
  for (const char *Backend : CombiningBackends) {
    concurrentLincheck(Backend, 4, CombineMode::On);
    concurrentLincheck(Backend, 1, CombineMode::On, /*MixDirect=*/true);
  }
}

// A session returns its combiner slot on close or destruction, and a
// move hands the slot over: however many sessions a front-end has seen,
// one opened while fewer than CombinerSlots are open combines.
TEST(ShardedSetTest, ClosedSessionsFreeTheirCombinerSlots) {
  if (!stats::Enabled)
    GTEST_SKIP() << "stats compiled out";
  auto Front = mustCreate(options("coarse", 1, 1, CombineMode::On));
  const auto Delta = [Before = stats::snapshotAll()](stats::Counter C) {
    return stats::snapshotAll().delta(Before).get(C);
  };
  constexpr unsigned Slots = ShardedSet::CombinerSlots;
  // Sequential sessions, alternately closed and destroyed.
  for (unsigned I = 0; I != 2 * Slots; ++I) {
    ShardedSet::Session Session = Front->openSession();
    Session.enqueue(SetOp::Insert, static_cast<SetKey>(I));
    if (I % 2)
      Session.close();
  }
  EXPECT_EQ(Delta(stats::Counter::ServiceOpsCombined), 2 * Slots);
  EXPECT_EQ(Delta(stats::Counter::ServiceOpsDirect), 0u);
  // Every slot held (the vector's growth moves sessions): one more
  // session goes direct.
  std::vector<ShardedSet::Session> Held;
  for (unsigned I = 0; I != Slots; ++I)
    Held.push_back(Front->openSession());
  Front->openSession().enqueue(SetOp::Contains, 0);
  EXPECT_EQ(Delta(stats::Counter::ServiceOpsDirect), 1u);
  // Freeing one slot lets the next session combine again.
  Held.pop_back();
  Front->openSession().enqueue(SetOp::Contains, 0);
  EXPECT_EQ(Delta(stats::Counter::ServiceOpsCombined), 2 * Slots + 1);
  EXPECT_EQ(Delta(stats::Counter::ServiceOpsDirect), 1u);
}

// CombineMode::On combines exactly over the backends whose reads take
// locks; every other backend applies each session batch directly. One
// session, one shard, 16 batches of 4: a combining backend runs one
// combine round per batch.
TEST(ShardedSetTest, CombiningFollowsBackendReads) {
  for (const SetDescription &D : registeredSetDescriptions()) {
    const bool Locking = D.Name == "coarse" || D.Name == "hand-over-hand";
    EXPECT_EQ(makeSet(D.Name)->readsTakeLocks(), Locking) << D.Name;
    if (!stats::Enabled)
      continue;
    auto Front = mustCreate(options(D.Name, 1, 4, CombineMode::On));
    const stats::Snapshot Before = stats::snapshotAll();
    ShardedSet::Session Session = Front->openSession();
    // Hash backends take only [0, 2^62) keys.
    for (SetKey Key = 0; Key != 64; ++Key)
      Session.enqueue(SetOp::Insert, Key);
    Session.flush();
    const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
    const std::vector<BatchOp> Done = Session.takeCompleted();
    ASSERT_EQ(Done.size(), 64u) << D.Name;
    for (const BatchOp &O : Done)
      EXPECT_TRUE(O.Result) << D.Name << " key " << O.Key;
    EXPECT_EQ(Front->snapshot().size(), 64u) << D.Name;
    EXPECT_EQ(Delta.get(stats::Counter::ServiceOpsCombined),
              Locking ? 64u : 0u)
        << D.Name;
    EXPECT_EQ(Delta.get(stats::Counter::ServiceCombineRounds),
              Locking ? 16u : 0u)
        << D.Name;
    EXPECT_EQ(Delta.get(stats::Counter::ServiceOpsDirect),
              Locking ? 0u : 64u)
        << D.Name;
  }
  if (!stats::Enabled)
    GTEST_SKIP() << "stats compiled out: op paths unchecked";
}

// Concurrent differential on final state: updates only, disjoint key
// slices per thread, so the final snapshot is deterministic.
TEST(ShardedSetTest, ConcurrentDisjointSlices) {
  auto Front = mustCreate(options("vbl", 4, 8, CombineMode::On));
  constexpr unsigned Threads = 4;
  SpinBarrier Barrier(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      ShardedSet::Session Session = Front->openSession();
      Barrier.arriveAndWait();
      const SetKey Base = static_cast<SetKey>(T) * 100;
      for (SetKey Key = Base; Key != Base + 50; ++Key)
        Session.enqueue(SetOp::Insert, Key);
      for (SetKey Key = Base; Key != Base + 50; Key += 2)
        Session.enqueue(SetOp::Remove, Key);
      Session.flush();
    });
  for (auto &Worker : Workers)
    Worker.join();
  EXPECT_TRUE(Front->checkInvariants());
  std::vector<SetKey> Expected;
  for (unsigned T = 0; T != Threads; ++T)
    for (SetKey Key = T * 100 + 1; Key < T * 100 + 50; Key += 2)
      Expected.push_back(Key);
  EXPECT_EQ(Front->snapshot(), Expected);
}

//===--------------------------------------------------------------===//
// Registry descriptions and the suggestion path
//===--------------------------------------------------------------===//

TEST(ShardedSetTest, UnknownBackendSuggestsClosestNames) {
  ShardedSet::Options Opts;
  Opts.Backend = "vlb"; // transposition of "vbl"
  std::string Error;
  EXPECT_EQ(ShardedSet::create(Opts, &Error), nullptr);
  EXPECT_NE(Error.find("unknown backend 'vlb'"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("did you mean"), std::string::npos) << Error;
  EXPECT_NE(Error.find("vbl"), std::string::npos) << Error;
}

TEST(ShardedSetTest, RegistryDescriptionsAreComplete) {
  const std::vector<SetDescription> All = registeredSetDescriptions();
  EXPECT_EQ(All.size(), 25u);
  EXPECT_EQ(registeredHashSetNames().size(), 4u);
  for (const SetDescription &D : All) {
    EXPECT_FALSE(D.Describe.empty()) << D.Name;
    // Every described name must resolve through the factory.
    EXPECT_NE(makeSet(D.Name), nullptr) << D.Name;
  }
  EXPECT_FALSE(setDescription("vbl").empty());
  EXPECT_TRUE(setDescription("no-such-backend").empty());
  const std::vector<std::string> Close = suggestSetNames("vbl-chunck");
  ASSERT_FALSE(Close.empty());
  EXPECT_EQ(Close.front(), "vbl-chunk");
}

//===--------------------------------------------------------------===//
// Range scans through the front-end
//===--------------------------------------------------------------===//

// Direct rangeQuery/snapshot must merge the hash-partitioned shards
// into one ascending window, matching a std::set model exactly.
TEST(ShardedSetTest, RangeQueryMergesShards) {
  for (const char *Backend : Backends) {
    auto Front = mustCreate(options(Backend, 4, 1, CombineMode::Off));
    std::set<SetKey> Model;
    Xoshiro256 Rng(7);
    for (int I = 0; I != 400; ++I) {
      const auto Key = static_cast<SetKey>(Rng.nextBounded(256));
      Front->insert(Key);
      Model.insert(Key);
    }
    std::vector<SetKey> Got;
    const size_t Returned = Front->rangeQuery(50, 199, Got);
    EXPECT_EQ(Returned, Got.size());
    EXPECT_EQ(Got, std::vector<SetKey>(Model.lower_bound(50),
                                       Model.upper_bound(199)))
        << Backend;
    std::vector<SetKey> All;
    Front->snapshot(All);
    EXPECT_EQ(All, std::vector<SetKey>(Model.begin(), Model.end()))
        << Backend;
  }
}

// Session scans: enqueueRange flushes the session's queues, then runs
// the front-end's merged cross-shard scan, and takeCompletedScans()
// reports the ascending window.
void enqueueRangeDifferential(const std::string &Backend, unsigned Batch,
                              CombineMode Mode) {
  auto Front = mustCreate(options(Backend, 4, Batch, Mode));
  ShardedSet::Session Session = Front->openSession();
  std::set<SetKey> Model;
  Xoshiro256 Rng(31);
  size_t ScansIssued = 0;
  size_t ScansSeen = 0;
  // Replays completed point ops into the model in completion order.
  // Must run before any scan comparison: pre-scan flushes complete
  // queued updates the model hasn't absorbed yet.
  const auto DrainCompleted = [&](int I) {
    for (const BatchOp &Done : Session.takeCompleted()) {
      bool Expected = false;
      switch (Done.Op) {
      case SetOp::Insert:
        Expected = Model.insert(Done.Key).second;
        break;
      case SetOp::Remove:
        Expected = Model.erase(Done.Key) != 0;
        break;
      case SetOp::Contains:
        Expected = Model.count(Done.Key) != 0;
        break;
      case SetOp::RangeQuery:
        ADD_FAILURE() << "scan pieces must not reach takeCompleted()";
        continue;
      }
      ASSERT_EQ(Done.Result, Expected) << Backend << " op " << I;
    }
  };
  for (int I = 0; I != 3000; ++I) {
    const auto Key = static_cast<SetKey>(Rng.nextBounded(64));
    const unsigned Kind = static_cast<unsigned>(Rng.nextBounded(8));
    if (Kind == 0) {
      const SetKey Hi = Key + static_cast<SetKey>(Rng.nextBounded(32));
      // Flush first: the model answer is only comparable when every
      // already-queued update lands before the scan does (a single
      // session serializes everything, so flush-then-scan pins it).
      Session.flush();
      ASSERT_NO_FATAL_FAILURE(DrainCompleted(I));
      Session.enqueueRange(Key, Hi, /*Tag=*/static_cast<uint64_t>(I));
      Session.flush();
      ++ScansIssued;
      for (ShardedSet::Session::CompletedScan &Scan :
           Session.takeCompletedScans()) {
        ++ScansSeen;
        EXPECT_EQ(Scan.Keys,
                  std::vector<SetKey>(Model.lower_bound(Scan.Lo),
                                      Model.upper_bound(Scan.Hi)))
            << Backend << " scan [" << Scan.Lo << ", " << Scan.Hi
            << "] tag " << Scan.Tag;
      }
      continue;
    }
    const SetOp Op = Kind < 4   ? SetOp::Insert
                     : Kind < 7 ? SetOp::Remove
                                : SetOp::Contains;
    Session.enqueue(Op, Key);
    ASSERT_NO_FATAL_FAILURE(DrainCompleted(I));
  }
  Session.close();
  ASSERT_NO_FATAL_FAILURE(DrainCompleted(-1));
  EXPECT_EQ(ScansIssued, ScansSeen) << Backend;
  EXPECT_EQ(Session.pendingOps(), 0u) << Backend;
}

TEST(ShardedSetTest, EnqueueRangeBatched) {
  for (const char *Backend : Backends)
    enqueueRangeDifferential(Backend, 8, CombineMode::Off);
}

TEST(ShardedSetTest, EnqueueRangeCombining) {
  enqueueRangeDifferential("vbl-chunk", 8, CombineMode::On);
  for (const char *Backend : CombiningBackends)
    enqueueRangeDifferential(Backend, 8, CombineMode::On);
}

//===--------------------------------------------------------------===//
// Session lifecycle (destructor flush, close, moves)
//===--------------------------------------------------------------===//

// Regression: ops queued below BatchSize were silently dropped when a
// session was destroyed without an explicit flush.
TEST(ShardedSetTest, DestructorFlushesResidualOps) {
  auto Front = mustCreate(options("vbl", 4, 64, CombineMode::Off));
  {
    ShardedSet::Session Session = Front->openSession();
    for (SetKey Key = 0; Key != 10; ++Key)
      Session.enqueue(SetOp::Insert, Key);
    EXPECT_EQ(Session.pendingOps(), 10u)
        << "batch should still be queued (BatchSize 64)";
  } // ~Session must flush the residual batch.
  const std::vector<SetKey> Final = Front->snapshot();
  EXPECT_EQ(Final.size(), 10u)
      << "ops enqueued below BatchSize were dropped at session exit";
}

TEST(ShardedSetTest, TakeCompletedStillWorksAfterClose) {
  auto Front = mustCreate(options("vbl", 4, 64, CombineMode::Off));
  ShardedSet::Session Session = Front->openSession();
  for (SetKey Key = 0; Key != 6; ++Key)
    Session.enqueue(SetOp::Insert, Key);
  Session.enqueueRange(0, 9);
  Session.close();
  EXPECT_EQ(Session.pendingOps(), 0u);
  // Results of the close-time flush are still takeable afterwards.
  EXPECT_EQ(Session.takeCompleted().size(), 6u);
  const auto Scans = Session.takeCompletedScans();
  ASSERT_EQ(Scans.size(), 1u);
  EXPECT_EQ(Scans[0].Keys, (std::vector<SetKey>{0, 1, 2, 3, 4, 5}));
  // close() is idempotent; a second take is empty, not stale.
  Session.close();
  EXPECT_TRUE(Session.takeCompleted().empty());
}

TEST(ShardedSetTest, MovedFromSessionDoesNotDoubleFlush) {
  auto Front = mustCreate(options("vbl", 2, 64, CombineMode::Off));
  ShardedSet::Session A = Front->openSession();
  A.enqueue(SetOp::Insert, 1);
  ShardedSet::Session B = std::move(A);
  { ShardedSet::Session C = std::move(B); } // C flushes on destruction.
  // A and B are detached; their destructors must not flush again, and
  // the op must have landed exactly once.
  EXPECT_TRUE(Front->contains(1));
  EXPECT_EQ(Front->snapshot().size(), 1u);
}

TEST(ShardedSetTest, CombineModeNames) {
  EXPECT_STREQ(combineModeName(CombineMode::Off), "off");
  EXPECT_STREQ(combineModeName(CombineMode::On), "on");
}

} // namespace
