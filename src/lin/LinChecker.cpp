//===- lin/LinChecker.cpp - Linearizability checking ---------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "lin/LinChecker.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

using namespace vbl;
using namespace vbl::lin;

namespace {

/// Wing-Gong style DFS over linearization prefixes of one key's history.
///
/// The done-set is represented as "everything before Frontier except the
/// ops listed in Holes". Holes are remaining ops that were *skipped
/// over* by the chosen linearization; their count is bounded by the true
/// operation concurrency (ops whose real-time intervals are still open),
/// which stays small even when an oversubscribed thread is preempted
/// mid-operation and its interval stretches over hundreds of later ops.
class SingleKeySearch {
public:
  SingleKeySearch(std::vector<CompletedOp> OpsIn, bool Present)
      : Ops(std::move(OpsIn)), InitialPresent(Present) {
    std::sort(Ops.begin(), Ops.end(),
              [](const CompletedOp &A, const CompletedOp &B) {
                return A.Invoke < B.Invoke;
              });
    // Suffix minimum of responses: minimal response among ops[i..).
    SuffixMinResp.assign(Ops.size() + 1, UINT64_MAX);
    for (size_t I = Ops.size(); I != 0; --I)
      SuffixMinResp[I - 1] =
          std::min(SuffixMinResp[I], Ops[I - 1].Response);
  }

  /// Depth-first over linearization prefixes with an explicit stack:
  /// a history linearizes one op per level, so recursion would need a
  /// C++ frame per op of the key (thousands for a long toggle chain).
  /// Candidates are tried in the same order as a recursive search
  /// would: remaining holes ascending, then ops from the frontier on.
  bool run() {
    std::vector<Frame> Stack;
    if (enter(Stack, 0, {}, InitialPresent))
      return true;
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      size_t I;
      if (F.Next < F.Holes.size()) {
        I = F.Holes[F.Next++];
        if (Ops[I].Invoke > F.MinResp)
          continue;
      } else {
        I = F.Frontier + (F.Next - F.Holes.size());
        if (I == Ops.size() || Ops[I].Invoke > F.MinResp) {
          Stack.pop_back(); // Every candidate failed.
          continue;
        }
        ++F.Next;
      }
      bool NextPresent = F.Present;
      if (!applyOp(Ops[I], F.Present, NextPresent))
        continue;
      std::vector<uint32_t> Holes = F.Holes;
      size_t Frontier = F.Frontier;
      if (I < Frontier) {
        // I was a hole.
        Holes.erase(std::find(Holes.begin(), Holes.end(),
                              static_cast<uint32_t>(I)));
      } else {
        // Ops [Frontier, I) were skipped over: they become holes.
        for (size_t J = Frontier; J != I; ++J)
          Holes.push_back(static_cast<uint32_t>(J));
        Frontier = I + 1;
      }
      if (enter(Stack, Frontier, std::move(Holes), NextPresent))
        return true;
    }
    return false;
  }

private:
  /// Applies one operation's contract to the presence bit. Returns
  /// false if the recorded result contradicts the state.
  static bool applyOp(const CompletedOp &Op, bool Present,
                      bool &NextPresent) {
    switch (Op.Op) {
    case SetOp::Insert:
      if (Op.Result == Present)
        return false; // insert succeeds iff absent
      NextPresent = true;
      return true;
    case SetOp::Remove:
      if (Op.Result != Present)
        return false; // remove succeeds iff present
      NextPresent = false;
      return true;
    case SetOp::Contains:
      if (Op.Result != Present)
        return false;
      NextPresent = Present;
      return true;
    case SetOp::RangeQuery:
      // Scans never reach the per-key search directly: decomposeScans()
      // lowers them to Contains observations first. A raw RangeQuery
      // record is a caller bug; fail the check loudly rather than guess.
      return false;
    }
    vbl_unreachable("covered switch");
  }

  /// A search state, memoized by its exact value. A 64-bit fold such
  /// as StateHash below is not a sound memo key: for an even Frontier
  /// it maps (F, {h}, present) and (F, {h^1}, absent) to the same
  /// value, so remembering a failed state by its fold pruned a
  /// different, live state and rejected linearizable histories.
  struct State {
    size_t Frontier;
    std::vector<uint32_t> Holes; // Sorted.
    bool Present;

    bool operator==(const State &O) const = default;
  };

  /// Bucket selector only; equality above decides membership.
  struct StateHash {
    size_t operator()(const State &S) const {
      uint64_t H = S.Frontier * 0x9e3779b97f4a7c15ULL + (S.Present ? 1 : 0);
      for (uint32_t Hole : S.Holes)
        H = (H ^ Hole) * 0xff51afd7ed558ccdULL;
      return static_cast<size_t>(H);
    }
  };

  /// One search level: the state (ops in Holes and ops at indices
  /// >= Frontier are remaining) and the next candidate to linearize.
  /// Next < Holes.size() indexes Holes; beyond that it walks the ops
  /// from Frontier on.
  struct Frame {
    size_t Frontier;
    std::vector<uint32_t> Holes; // Sorted.
    bool Present;
    /// An op can be linearized first iff it is invoked before every
    /// remaining op's response (Wing-Gong candidate rule).
    uint64_t MinResp;
    size_t Next;
  };

  /// Enters state (Frontier, Holes, Present): returns true if it
  /// completes a linearization, otherwise pushes its frame unless the
  /// state was explored (and failed) before.
  bool enter(std::vector<Frame> &Stack, size_t Frontier,
             std::vector<uint32_t> Holes, bool Present) {
    if (Frontier == Ops.size() && Holes.empty())
      return true;
    std::sort(Holes.begin(), Holes.end());
    if (!Visited.insert({Frontier, Holes, Present}).second)
      return false;
    uint64_t MinResp = SuffixMinResp[Frontier];
    for (uint32_t Hole : Holes)
      MinResp = std::min(MinResp, Ops[Hole].Response);
    Stack.push_back({Frontier, std::move(Holes), Present, MinResp, 0});
    return false;
  }

  std::vector<CompletedOp> Ops;
  std::vector<uint64_t> SuffixMinResp;
  bool InitialPresent;
  std::unordered_set<State, StateHash> Visited;
};

} // namespace

bool vbl::lin::checkSingleKeyHistory(std::vector<CompletedOp> Ops,
                                     bool InitiallyPresent) {
  SingleKeySearch Search(std::move(Ops), InitiallyPresent);
  return Search.run();
}

std::vector<CompletedOp>
vbl::lin::decomposeScans(const std::vector<CompletedScan> &Scans,
                         const std::vector<SetKey> &Universe) {
  std::vector<CompletedOp> Synthesized;
  for (const CompletedScan &Scan : Scans) {
    std::unordered_set<SetKey> Reported(Scan.Keys.begin(),
                                        Scan.Keys.end());
    for (SetKey Key : Universe) {
      if (Key < Scan.Lo || Key > Scan.Hi)
        continue;
      Synthesized.push_back({SetOp::Contains, Key,
                             Reported.count(Key) == 1, Scan.Invoke,
                             Scan.Response, Scan.Thread});
    }
  }
  return Synthesized;
}

LinResult vbl::lin::checkSetHistory(
    const std::vector<CompletedOp> &History,
    const std::vector<SetKey> &InitialKeys) {
  std::unordered_map<SetKey, std::vector<CompletedOp>> PerKey;
  for (const CompletedOp &Op : History)
    PerKey[Op.Key].push_back(Op);

  std::unordered_set<SetKey> Initial(InitialKeys.begin(),
                                     InitialKeys.end());

  LinResult Result;
  for (auto &[Key, Ops] : PerKey) {
    if (checkSingleKeyHistory(Ops, Initial.count(Key) == 1))
      continue;
    Result.Ok = false;
    Result.ViolatingKey = Key;
    Result.Message = "no linearization exists for the " +
                     std::to_string(Ops.size()) +
                     " operations on key " + std::to_string(Key);
    return Result;
  }
  return Result;
}
