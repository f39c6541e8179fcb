//===- tests/sched/ScenarioCorpus.h - Shared exploration scenarios -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario corpus driven through the InterleavingExplorer, shared
/// by the optimality test (Theorem 3 on the sequential spec LL) and the
/// race-detector tests (VblList / LazyList / HarrisMichaelList must
/// come back race-free over the same workloads). A scenario is a
/// prefill, one op program per thread, and the key universe the
/// correctness checker quantifies over.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_TESTS_SCHED_SCENARIOCORPUS_H
#define VBL_TESTS_SCHED_SCENARIOCORPUS_H

#include "lin/LinChecker.h"
#include "sched/InterleavingExplorer.h"
#include "sched/TracedPolicy.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vbl {
namespace sched {

/// The episode cap of an exploration test: \p Default at PR depth, or
/// VBL_EXPLORE_EPISODES when set (the nightly deepens every exploration
/// through it).
inline size_t episodeCapOr(size_t Default) {
  if (const char *Env = std::getenv("VBL_EXPLORE_EPISODES"))
    if (long Cap = std::atol(Env); Cap > 0)
      return static_cast<size_t>(Cap);
  return Default;
}

/// One program step. Point ops use Key alone; RangeQuery scans the
/// window [Key, KeyHi].
struct ProgramOp {
  SetOp Op;
  SetKey Key;
  SetKey KeyHi = 0;
};

struct Scenario {
  std::string Name;
  std::vector<SetKey> Prefill;
  /// One op list per thread.
  std::vector<std::vector<ProgramOp>> Programs;
  std::vector<SetKey> Universe;
  /// Exploration cap: multi-op scenarios only cover a deterministic
  /// lexicographic prefix of the interleaving tree.
  size_t MaxEpisodes = 60000;
};

inline std::vector<Scenario> scenarios() {
  return {
      {"fig2_insert_present_vs_insert", {1},
       {{{SetOp::Insert, 1}}, {{SetOp::Insert, 2}}}, {1, 2}, 60000},
      {"disjoint_inserts", {5},
       {{{SetOp::Insert, 1}}, {{SetOp::Insert, 9}}}, {1, 5, 9}, 60000},
      {"adjacent_inserts_empty", {},
       {{{SetOp::Insert, 1}}, {{SetOp::Insert, 2}}}, {1, 2}, 60000},
      {"insert_vs_remove_same_key", {4},
       {{{SetOp::Insert, 4}}, {{SetOp::Remove, 4}}}, {4}, 60000},
      {"remove_vs_remove_same_key", {3},
       {{{SetOp::Remove, 3}}, {{SetOp::Remove, 3}}}, {3}, 60000},
      {"remove_vs_contains", {2, 6},
       {{{SetOp::Remove, 2}}, {{SetOp::Contains, 2}}}, {2, 6}, 60000},
      {"disjoint_removes", {1, 5},
       {{{SetOp::Remove, 1}}, {{SetOp::Remove, 5}}}, {1, 5}, 60000},
      {"insert_after_vs_remove_before", {3},
       {{{SetOp::Insert, 7}}, {{SetOp::Remove, 3}}}, {3, 7}, 60000},
      // Multi-op and three-thread scenarios (capped exploration).
      {"two_ops_each", {2},
       {{{SetOp::Insert, 1}, {SetOp::Remove, 2}},
        {{SetOp::Insert, 2}, {SetOp::Contains, 1}}},
       {1, 2}, 3000},
      {"three_threads", {2},
       {{{SetOp::Insert, 1}}, {{SetOp::Remove, 2}},
        {{SetOp::Contains, 2}}},
       {1, 2}, 3000},
      {"toggle_chain", {},
       {{{SetOp::Insert, 5}, {SetOp::Remove, 5}},
        {{SetOp::Insert, 5}}},
       {5}, 3000},
      // Scan interleavings: a reader sweeps a window while a writer
      // unlinks from / inserts into the middle of it. Every episode
      // must export a spec-legal scan AND stay race- and flow-clean.
      {"scan_vs_unlink", {2, 4, 6},
       {{{SetOp::Remove, 4}}, {{SetOp::RangeQuery, 1, 7}}},
       {2, 4, 6}, 60000},
      {"scan_vs_insert_mid", {2, 6},
       {{{SetOp::Insert, 4}}, {{SetOp::RangeQuery, 1, 7}}},
       {2, 4, 6}, 60000},
  };
}

/// Scenarios for the split-ordered hash sets (tests/maps). Driven
/// against tables built with InitialBuckets=1, GrowLoadFactor=1 so that
/// episode inserts push the count over the load threshold and the
/// bucket-index growth + lazy dummy splicing interleave with the other
/// thread's operation — including the resize-vs-insert pairing the
/// race detector must clear. Kept separate from scenarios(): the
/// optimality theorem is about the flat lists, and the hash prefills
/// are tuned to the tiny table.
inline std::vector<Scenario> hashSetScenarios() {
  return {
      // Prefill grows the table untraced; both traced inserts then
      // exceed load factor 1 and race to publish a doubled index while
      // splicing dummies for freshly addressable buckets.
      {"hash_grow_vs_insert", {1, 2},
       {{{SetOp::Insert, 3}}, {{SetOp::Insert, 4}}}, {1, 2, 3, 4}, 3000},
      {"hash_insert_vs_insert_empty", {},
       {{{SetOp::Insert, 1}}, {{SetOp::Insert, 2}}}, {1, 2}, 3000},
      {"hash_insert_vs_contains", {1, 2},
       {{{SetOp::Insert, 3}}, {{SetOp::Contains, 2}}}, {1, 2, 3}, 3000},
      {"hash_insert_vs_remove", {1, 2},
       {{{SetOp::Insert, 3}}, {{SetOp::Remove, 1}}}, {1, 2, 3}, 3000},
      {"hash_remove_vs_remove_same_key", {1, 2},
       {{{SetOp::Remove, 2}}, {{SetOp::Remove, 2}}}, {1, 2}, 3000},
      {"hash_remove_vs_contains", {1, 2, 3},
       {{{SetOp::Remove, 3}}, {{SetOp::Contains, 3}}}, {1, 2, 3}, 3000},
      {"hash_two_ops_each", {1},
       {{{SetOp::Insert, 2}, {SetOp::Remove, 1}},
        {{SetOp::Insert, 3}, {SetOp::Contains, 2}}},
       {1, 2, 3}, 2000},
  };
}

/// Scenarios for the hash tables' shrink path: built with
/// InitialBuckets=1, GrowLoadFactor=1, ShrinkDivisor=2, MinBuckets=1,
/// so episode removes cross the shrink watermark and the halving
/// index-swap interleaves with the other thread's operation —
/// resize-vs-insert/remove, shrink-vs-contains, and both directions
/// racing a range scan.
inline std::vector<Scenario> hashResizeScenarios() {
  return {
      // Both inserts race to publish a doubled index on a table whose
      // shrink machinery is armed (the loser's copy must retire).
      {"hash_resize_vs_insert", {1, 2},
       {{{SetOp::Insert, 3}}, {{SetOp::Insert, 4}}}, {1, 2, 3, 4}, 3000},
      // The drain crosses the shrink watermark while the insert pushes
      // the other way: halving and doubling contend for the index slot.
      {"hash_resize_vs_insert_remove", {1, 2},
       {{{SetOp::Remove, 1}, {SetOp::Remove, 2}}, {{SetOp::Insert, 3}}},
       {1, 2, 3}, 2000},
      // A reader traverses from a bucket handle resolved against the
      // wide index while the drain installs the halved copy.
      {"hash_shrink_vs_contains", {1, 2},
       {{{SetOp::Remove, 1}, {SetOp::Remove, 2}}, {{SetOp::Contains, 2}}},
       {1, 2}, 2000},
      {"hash_shrink_vs_remove", {1, 2, 3},
       {{{SetOp::Remove, 1}, {SetOp::Remove, 2}}, {{SetOp::Remove, 3}}},
       {1, 2, 3}, 2000},
      // Index swaps racing a full-window scan: the scan walks the one
      // ordered list and must stay linearizable whichever index it
      // resolved its entry point through.
      {"hash_resize_vs_scan", {1, 2},
       {{{SetOp::Insert, 3}}, {{SetOp::RangeQuery, 0, 7}}},
       {1, 2, 3}, 2000},
      {"hash_shrink_vs_scan", {1, 2, 3},
       {{{SetOp::Remove, 1}, {SetOp::Remove, 2}},
        {{SetOp::RangeQuery, 0, 7}}},
       {1, 2, 3}, 2000},
  };
}

/// Scenarios for the chunk list's merge of underfull chunks, tuned to
/// K=4 (the merge trigger is a quarter-full or singleton chunk and a
/// neighbour the union fits with). Prefill {1..5} lays out chunks
/// {1,2} -> {3,4,5}: removing 1 or 2 drops the first chunk to one key
/// and arms a merge with the 3-key successor (union of 4 fits exactly),
/// so the two-source freeze + single swing interleaves with the other
/// thread's op.
inline std::vector<Scenario> chunkMergeScenarios() {
  return {
      {"chunk_merge_vs_contains", {1, 2, 3, 4, 5},
       {{{SetOp::Remove, 1}}, {{SetOp::Contains, 4}}},
       {1, 2, 3, 4, 5}, 3000},
      {"chunk_merge_vs_insert", {1, 2, 3, 4, 5},
       {{{SetOp::Remove, 2}}, {{SetOp::Insert, 6}}},
       {1, 2, 3, 4, 5, 6}, 3000},
      // Two removes, two merge attempts over overlapping chunk pairs;
      // the second must revalidate against whatever the first froze.
      {"chunk_merge_vs_remove", {1, 2, 3, 4, 5},
       {{{SetOp::Remove, 1}}, {{SetOp::Remove, 3}}},
       {1, 2, 3, 4, 5}, 3000},
      // Reshape racing a range scan: the scan's optimistic window walk
      // crosses the pair being excised by one swing.
      {"chunk_reshape_vs_range", {1, 2, 3, 4, 5},
       {{{SetOp::Remove, 2}}, {{SetOp::RangeQuery, 1, 6}}},
       {1, 2, 3, 4, 5}, 3000},
      // Same-chunk churn: the remove's merge leaves one full chunk, so
      // the re-insert and the other thread's insert both decide shape
      // under the locks of the structural path.
      {"chunk_heat_toggle", {1, 2, 3, 4, 5},
       {{{SetOp::Remove, 1}, {SetOp::Insert, 1}}, {{SetOp::Insert, 6}}},
       {1, 2, 3, 4, 5, 6}, 2000},
  };
}

/// Scenarios tuned for version-based reclamation: every program both
/// retires and re-allocates, so the explorer drives the retire ->
/// immediate in-place reuse -> birth-stamp edge against a concurrent
/// traversal or lock validation inside one episode. Run with lists over
/// a VBR domain (tests/analysis/VbrReclaimTest.cpp); they are valid,
/// if less pointed, for any reclamation scheme.
inline std::vector<Scenario> vbrScenarios() {
  return {
      // Recycle-vs-traversal: the reader's certified hop is invalidated
      // mid-traversal when the victim's block is revived as the fresh
      // insert at a different key.
      {"vbr_recycle_vs_contains", {4},
       {{{SetOp::Remove, 4}, {SetOp::Insert, 7}}, {{SetOp::Contains, 4}}},
       {4, 7}, 3000},
      // Same-key turnaround: the revived block re-enters at the same
      // routed position, maximizing stamp-vs-validate overlap between
      // the reviver's release stores and the reader's birth checks.
      {"vbr_toggle_same_key", {4},
       {{{SetOp::Remove, 4}, {SetOp::Insert, 4}}, {{SetOp::Contains, 4}}},
       {4}, 3000},
      // Two updaters: one retires and revives, the other must
      // re-certify its (prev, curr) placement under lock against the
      // possibly recycled block.
      {"vbr_stamp_vs_validate", {3, 6},
       {{{SetOp::Remove, 3}, {SetOp::Insert, 8}},
        {{SetOp::Insert, 4}, {SetOp::Remove, 6}}},
       {3, 4, 6, 8}, 2000},
      // Scan-vs-revival: the scanner's certified hop lands on a block
      // that is retired and revived (same key) mid-window; VBR birth
      // checks must keep the walk on live nodes or restart it.
      {"vbr_scan_vs_revival", {2, 4, 6},
       {{{SetOp::Remove, 4}, {SetOp::Insert, 4}},
        {{SetOp::RangeQuery, 1, 7}}},
       {2, 4, 6}, 2000},
  };
}

/// Builds an EpisodeFactory running the scenario's per-thread programs
/// against a fresh set produced by \p Make (returning a shared_ptr to
/// any structure with insert/remove/contains, headNode and nodeChain).
template <class MakeFn>
EpisodeFactory factoryForWith(const Scenario &S, MakeFn Make) {
  return [S, Make]() -> Episode {
    auto List = Make();
    for (SetKey Key : S.Prefill)
      List->insert(Key);
    Episode Ep;
    Ep.HeadNode = List->headNode();
    Ep.InitialChain = List->nodeChain();
    Ep.Holder = List;
    // Backends exposing flowView() opt into the per-step flow-invariant
    // oracle (analysis/FlowInvariant.h); others run exactly as before.
    if constexpr (requires { List->flowView(); })
      Ep.Flow = List->flowView();
    for (const auto &Program : S.Programs) {
      Ep.Bodies.push_back(std::function<void()>([List, Program] {
        for (const auto &[Op, Key, KeyHi] : Program) {
          switch (Op) {
          case SetOp::Insert:
            tracedOp(SetOp::Insert, Key,
                     [&] { return List->insert(Key); });
            break;
          case SetOp::Remove:
            tracedOp(SetOp::Remove, Key,
                     [&] { return List->remove(Key); });
            break;
          case SetOp::Contains:
            tracedOp(SetOp::Contains, Key,
                     [&] { return List->contains(Key); });
            break;
          case SetOp::RangeQuery:
            // Mutant fixtures (RacyList, ForgetfulList, ...) have no
            // scan; point-op scenarios drive them, so skip is safe.
            // The explorer checks a scan by the values it read, so the
            // keys it returned are checked here: a restart that kept
            // its partial collect shows only in them.
            if constexpr (requires(std::vector<SetKey> &Out) {
                            List->rangeQuery(Key, KeyHi, Out);
                          })
              tracedRangeOp(Key, KeyHi, [&] {
                std::vector<SetKey> Keys;
                const size_t Returned = List->rangeQuery(Key, KeyHi, Keys);
                if (std::string Error = lin::scanOutputError(
                        Key, KeyHi, Keys, Returned);
                    !Error.empty())
                  ADD_FAILURE() << Error;
                return Returned;
              });
            break;
          }
        }
      }));
    }
    return Ep;
  };
}

/// Convenience overload for default-constructible lists.
template <class ListT> EpisodeFactory factoryFor(const Scenario &S) {
  return factoryForWith(S, [] { return std::make_shared<ListT>(); });
}

} // namespace sched
} // namespace vbl

#endif // VBL_TESTS_SCHED_SCENARIOCORPUS_H
