//===- tests/lists/CorpusCoverageTest.cpp - Corpus coverage boundary -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Pins down which backends the shared scenario corpus (exploration +
/// race/flow oracles) covers, and why the remaining one is excluded:
///
/// LazySkipList is NOT policy-parameterized — it has no `Policy`
/// typedef and takes no PolicyT template argument, so the
/// deterministic step scheduler cannot mediate its shared accesses (no
/// yield per access means no interleaving enumeration and no per-step
/// flow snapshots). It also exposes no headNode()/nodeChain()/
/// flowView(): the skip list's multi-level successor arrays do not fit
/// the single-successor flow model (each key would "flow" through
/// every level it is linked at). Bringing it under the corpus means
/// first retrofitting a policy layer — tracked in ROADMAP.md, out of
/// scope here. This test asserts that exclusion premise AT COMPILE
/// TIME, so the moment the structure grows the required surface this
/// test fails and the corpus sweeps must be extended.
///
/// Until then the corpus still covers it at the functional level:
/// every corpus scenario is replayed sequentially (program order,
/// thread 0 first — a valid linearization of the scenario) against a
/// std::set model, checking each op's return value and the final
/// membership over the scenario's key universe.
///
//===----------------------------------------------------------------------===//

#include "lists/LazySkipList.h"
#include "reclaim/LeakyDomain.h"

#include "sched/ScenarioCorpus.h"

#include <gtest/gtest.h>

#include <set>

using namespace vbl;
using namespace vbl::sched;

namespace {

using SkipList = LazySkipList<reclaim::LeakyDomain>;

// The corpus-eligibility surface: a policy typedef for scheduler
// mediation plus the flow oracle's self-description hooks.
template <class T>
constexpr bool HasPolicy = requires { typename T::Policy; };
template <class T>
constexpr bool HasFlowView = requires(T &S) { S.flowView(); };
template <class T>
constexpr bool HasNodeChain = requires(const T &S) { S.nodeChain(); };

// The documented exclusion. If the assert fires, the structure gained
// the surface — wire it into FlowCheckerTest/CleanListsTest and delete
// this test.
static_assert(!HasPolicy<SkipList> && !HasFlowView<SkipList> &&
                  !HasNodeChain<SkipList>,
              "LazySkipList became corpus-eligible; add it to the "
              "interleaving sweeps");

/// Replays \p S sequentially (thread 0's program first) against a
/// std::set reference, checking every return value and the final
/// membership over the universe.
template <class SetT> void runSequentialCorpus(const char *SetName) {
  for (const Scenario &S : scenarios()) {
    SetT Impl;
    std::set<SetKey> Model;
    for (SetKey Key : S.Prefill) {
      EXPECT_TRUE(Impl.insert(Key)) << SetName << " / " << S.Name;
      Model.insert(Key);
    }
    for (const auto &Program : S.Programs) {
      for (const auto &[Op, Key, KeyHi] : Program) {
        switch (Op) {
        case SetOp::Insert:
          EXPECT_EQ(Impl.insert(Key), Model.insert(Key).second)
              << SetName << " / " << S.Name << ": insert " << Key;
          break;
        case SetOp::Remove:
          EXPECT_EQ(Impl.remove(Key), Model.erase(Key) > 0)
              << SetName << " / " << S.Name << ": remove " << Key;
          break;
        case SetOp::Contains:
          EXPECT_EQ(Impl.contains(Key), Model.count(Key) > 0)
              << SetName << " / " << S.Name << ": contains " << Key;
          break;
        case SetOp::RangeQuery: {
          std::vector<SetKey> Got;
          Impl.rangeQuery(Key, KeyHi, Got);
          const std::vector<SetKey> Want(Model.lower_bound(Key),
                                         Model.upper_bound(KeyHi));
          EXPECT_EQ(Got, Want) << SetName << " / " << S.Name << ": scan ["
                               << Key << ", " << KeyHi << "]";
          break;
        }
        }
      }
    }
    for (SetKey Key : S.Universe)
      EXPECT_EQ(Impl.contains(Key), Model.count(Key) > 0)
          << SetName << " / " << S.Name << ": final membership of " << Key;
    // The quiescent full-set scan must equal the model verbatim.
    EXPECT_EQ(Impl.snapshot(),
              std::vector<SetKey>(Model.begin(), Model.end()))
        << SetName << " / " << S.Name << ": snapshot";
    std::vector<SetKey> Whole;
    Impl.rangeQuery(MinSentinel + 1, MaxSentinel - 1, Whole);
    EXPECT_EQ(Whole, std::vector<SetKey>(Model.begin(), Model.end()))
        << SetName << " / " << S.Name << ": full-domain rangeQuery";
  }
}

TEST(CorpusCoverageTest, LazySkipListSequentialCorpus) {
  runSequentialCorpus<SkipList>("LazySkipList");
}

} // namespace
