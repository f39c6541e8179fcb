//===- tests/service/CombinerSchedTest.cpp - Combiner under the scheduler ===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Drives CombinerShard directly under the deterministic scheduler
/// with AnalyzedPolicy over a traced VblList backend, so the
/// happens-before detector sees every slot-protocol access:
///
///  - combiner-vs-combiner: two sessions publish concurrently; every
///    interleaving of the publish / drain / handoff protocol must be
///    race-free, deadlock-free, and produce correct op results;
///  - combiner-vs-direct: one session combines while another applies
///    its batch straight to the list, as sessions beyond the slot
///    array do, proving combining is an amortization and not an
///    exclusivity requirement — direct and combined ops interleave
///    safely;
///  - both protocol outcomes — a session draining its own slot and a
///    session finding its slot drained by the other's combine round
///    (the handoff) — are constructed by forced schedules and verified
///    to occur.
///
/// A 2-slot shard keeps the per-episode access count small enough for
/// meaningful exploration prefixes.
///
//===----------------------------------------------------------------------===//

#include "service/FlatCombiner.h"

#include "core/VblList.h"
#include "reclaim/LeakyDomain.h"
#include "sched/AnalyzedPolicy.h"
#include "sched/InterleavingExplorer.h"
#include "sched/TracedPolicy.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>

using namespace vbl;
using namespace vbl::sched;
using namespace vbl::service;

namespace {

using TracedList = VblList<reclaim::LeakyDomain, AnalyzedPolicy>;
using SmallCombiner = CombinerShard<2, TasLock>;

/// One episode's world: a traced list behind a 2-slot combiner, one
/// pre-sized BatchOp per session, and a drain log recording which
/// thread's combine round applied each slot (the handoff witness).
struct CombinerWorld {
  TracedList List;
  SmallCombiner Combiner;
  std::array<BatchOp, 2> Ops;
  /// DrainedBy[slot] = thread id whose Apply ran the slot's batch.
  std::array<int, 2> DrainedBy{-1, -1};

  void applySlot(BatchOp *Batch, uint32_t Count) {
    const TraceContext *Ctx = TraceContext::current();
    const int Actor = Ctx ? static_cast<int>(Ctx->ThreadId) : -1;
    for (uint32_t I = 0; I != Count; ++I) {
      BatchOp &O = Batch[I];
      for (unsigned Slot = 0; Slot != 2; ++Slot)
        if (&O == &Ops[Slot])
          DrainedBy[Slot] = Actor;
      switch (O.Op) {
      case SetOp::Insert:
        O.Result = List.insert(O.Key);
        break;
      case SetOp::Remove:
        O.Result = List.remove(O.Key);
        break;
      case SetOp::Contains:
        O.Result = List.contains(O.Key);
        break;
      case SetOp::RangeQuery:
        vbl_unreachable("combiner sched episodes use point ops only");
      }
    }
  }
};

/// Episode: thread i runs one (Op, Key) through the combiner (slot i)
/// or, with Direct[i] set, straight into the list. Prefill is applied
/// untraced.
struct CombinerScenario {
  const char *Name;
  std::vector<SetKey> Prefill;
  std::array<std::pair<SetOp, SetKey>, 2> Programs;
  std::array<bool, 2> Direct{false, false};
};

EpisodeFactory factoryFor(const CombinerScenario &S,
                          std::shared_ptr<CombinerWorld> *WorldOut) {
  return [S, WorldOut]() -> Episode {
    auto World = std::make_shared<CombinerWorld>();
    if (WorldOut)
      *WorldOut = World;
    for (SetKey Key : S.Prefill)
      World->List.insert(Key);
    Episode Ep;
    Ep.HeadNode = World->List.headNode();
    Ep.InitialChain = World->List.nodeChain();
    Ep.Holder = World;
    for (unsigned T = 0; T != 2; ++T) {
      const auto [Op, Key] = S.Programs[T];
      const bool Direct = S.Direct[T];
      Ep.Bodies.push_back(std::function<void()>([World, T, Op, Key,
                                                 Direct] {
        BatchOp &O = World->Ops[T];
        O.Op = Op;
        O.Key = Key;
        tracedOp(Op, Key, [&] {
          const auto Apply = [World](BatchOp *Batch, uint32_t Count) {
            World->applySlot(Batch, Count);
          };
          if (Direct)
            Apply(&O, 1);
          else
            World->Combiner.execute<AnalyzedPolicy>(T, &O, 1, Apply);
          return O.Result;
        });
      }));
    }
    return Ep;
  };
}

/// Explores a deterministic prefix of the scenario's interleavings,
/// asserting every episode is race-free, deadlock-free, and yields the
/// expected op results.
void expectProtocolClean(const CombinerScenario &S,
                         const std::array<bool, 2> &ExpectedResults,
                         size_t EpisodeCap) {
  std::shared_ptr<CombinerWorld> World;
  InterleavingExplorer Explorer(factoryFor(S, &World));
  size_t Episodes = 0;
  size_t Accesses = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        Accesses += Result.Raw.size();
        EXPECT_FALSE(Result.Deadlocked) << S.Name;
        for (const analysis::RaceReport &Report : Result.Races)
          ADD_FAILURE() << S.Name << ": " << Report.toString();
        for (unsigned T = 0; T != 2; ++T)
          EXPECT_EQ(World->Ops[T].Result, ExpectedResults[T])
              << S.Name << " thread " << T;
      },
      EpisodeCap);
  EXPECT_GT(Episodes, 0u) << S.Name;
  EXPECT_GT(Accesses, 0u)
      << S.Name << ": no accesses logged — is the policy wired?";
}

TEST(CombinerSchedTest, CombineVsCombineIsRaceFree) {
  const CombinerScenario S{
      "combine_vs_combine", {}, {{{SetOp::Insert, 1}, {SetOp::Insert, 2}}}};
  expectProtocolClean(S, {true, true}, 3000);
}

TEST(CombinerSchedTest, CombineVsCombineSameKey) {
  // Both sessions insert the same key: exactly one must win in every
  // interleaving; the slot protocol must not duplicate or drop ops.
  const CombinerScenario S{
      "combine_same_key", {}, {{{SetOp::Insert, 5}, {SetOp::Insert, 5}}}};
  std::shared_ptr<CombinerWorld> World;
  InterleavingExplorer Explorer(factoryFor(S, &World));
  size_t Episodes = 0;
  Explorer.exploreAll(
      [&](const EpisodeResult &Result) {
        ++Episodes;
        EXPECT_FALSE(Result.Deadlocked);
        for (const analysis::RaceReport &Report : Result.Races)
          ADD_FAILURE() << S.Name << ": " << Report.toString();
        EXPECT_NE(World->Ops[0].Result, World->Ops[1].Result)
            << "same-key inserts must resolve to one winner";
        EXPECT_TRUE(World->List.contains(5));
      },
      3000);
  EXPECT_GT(Episodes, 0u);
}

TEST(CombinerSchedTest, CombinerVsDirectHandoff) {
  // Thread 0 combines, thread 1 goes straight into the backend. Every
  // interleaving of slot protocol vs direct list access must stay
  // race-free with correct results.
  const CombinerScenario S{"combiner_vs_direct",
                           {3},
                           {{{SetOp::Insert, 1}, {SetOp::Remove, 3}}},
                           {false, true}};
  expectProtocolClean(S, {true, true}, 3000);
}

// Construct both protocol outcomes with forced schedules: (a) every
// session drains its own slot (sequential execution), (b) one session
// publishes early and the other's combine round drains it (handoff).
TEST(CombinerSchedTest, BothHandoffOutcomesObserved) {
  const CombinerScenario S{
      "handoff_outcomes", {}, {{{SetOp::Insert, 1}, {SetOp::Insert, 2}}}};
  std::shared_ptr<CombinerWorld> World;
  InterleavingExplorer Explorer(factoryFor(S, &World));

  // (a) Thread 0 runs to completion before thread 1 starts: each
  // session's own combine round applies its own batch.
  EpisodeResult Sequential = Explorer.run({});
  EXPECT_FALSE(Sequential.Deadlocked);
  EXPECT_TRUE(Sequential.Races.empty());
  EXPECT_EQ(World->DrainedBy[0], 0);
  EXPECT_EQ(World->DrainedBy[1], 1);
  EXPECT_TRUE(World->Ops[0].Result);
  EXPECT_TRUE(World->Ops[1].Result);

  // (b) Force thread 1 to publish its slot first (the publish is three
  // policy writes; grant a few extra steps for its Done pre-check),
  // then let the default grant finish thread 0, whose combine round
  // must drain BOTH slots — thread 1 observes the handoff. Sweep the
  // forced-prefix length: at least one prefix must exhibit a drain of
  // a slot by the other thread.
  bool SawHandoff = false;
  for (unsigned Steps = 1; Steps != 12 && !SawHandoff; ++Steps) {
    EpisodeResult Forced =
        Explorer.run(std::vector<unsigned>(Steps, 1));
    EXPECT_FALSE(Forced.Deadlocked);
    EXPECT_TRUE(Forced.Races.empty());
    EXPECT_TRUE(World->Ops[0].Result);
    EXPECT_TRUE(World->Ops[1].Result);
    SawHandoff = World->DrainedBy[0] == 1 || World->DrainedBy[1] == 0;
  }
  EXPECT_TRUE(SawHandoff)
      << "no forced prefix produced a combine-round handoff";
}

} // namespace
