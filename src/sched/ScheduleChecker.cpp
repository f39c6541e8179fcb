//===- sched/ScheduleChecker.cpp - Definition 1: correct schedules -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "sched/ScheduleChecker.h"

#include "lin/LinChecker.h"
#include "sched/ScheduleExport.h"
#include "sched/SpecInterpreter.h"
#include "support/Compiler.h"

#include <unordered_map>
#include <unordered_set>

using namespace vbl;
using namespace vbl::sched;

bool vbl::sched::reconstructFinalState(
    const Schedule &Exported,
    const std::vector<std::pair<const void *, SetKey>> &InitialChain,
    std::vector<SetKey> &KeysOut) {
  VBL_ASSERT(InitialChain.size() >= 2, "chain needs head and tail");
  std::unordered_map<const void *, uint64_t> WordOf;
  std::unordered_map<const void *, SetKey> KeyOf;
  for (size_t I = 0; I != InitialChain.size(); ++I) {
    KeyOf[InitialChain[I].first] = InitialChain[I].second;
    if (I + 1 != InitialChain.size())
      WordOf[InitialChain[I].first] = static_cast<uint64_t>(
          reinterpret_cast<uintptr_t>(InitialChain[I + 1].first));
  }
  for (const Event &E : Exported.events()) {
    if (E.Kind == EventKind::NewNode)
      KeyOf[E.Node] = static_cast<SetKey>(E.Value);
    if ((E.Kind == EventKind::Write || E.Kind == EventKind::Cas) &&
        E.Field == MemField::Next)
      WordOf[E.Node] = E.Value;
  }
  // A new node's initial next (set at creation) is the node its
  // traversal last read a value from, unless overwritten.
  std::unordered_map<uint64_t, const Event *> LastValRead;
  std::unordered_map<uint64_t, const void *> NewNodeOf;
  auto opKey = [](const Event &E) {
    return (static_cast<uint64_t>(E.Thread) << 32) | E.OpIndex;
  };
  for (const Event &E : Exported.events()) {
    if (E.Kind == EventKind::Read && E.Field == MemField::Val)
      LastValRead[opKey(E)] = &E;
    if (E.Kind == EventKind::NewNode && !NewNodeOf.count(opKey(E)))
      NewNodeOf[opKey(E)] = E.Node;
  }
  for (const auto &[Op, NewNode] : NewNodeOf) {
    if (WordOf.count(NewNode))
      continue;
    const auto It = LastValRead.find(Op);
    if (It != LastValRead.end())
      WordOf[NewNode] = static_cast<uint64_t>(
          reinterpret_cast<uintptr_t>(It->second->Node));
  }

  KeysOut.clear();
  const void *Head = InitialChain.front().first;
  const void *Tail = InitialChain.back().first;
  const void *Curr = Head;
  size_t Hops = 0;
  const size_t MaxHops = WordOf.size() + InitialChain.size() + 4;
  while (Curr != Tail) {
    if (++Hops > MaxHops)
      return false;
    const auto WordIt = WordOf.find(Curr);
    if (WordIt == WordOf.end())
      return false;
    Curr = reinterpret_cast<const void *>(
        static_cast<uintptr_t>(WordIt->second & ~uint64_t(1)));
    if (Curr == Tail)
      break;
    const auto KeyIt = KeyOf.find(Curr);
    if (KeyIt == KeyOf.end())
      return false;
    // Membership requires being reachable AND unmarked.
    const auto SelfWord = WordOf.find(Curr);
    const bool Marked =
        SelfWord != WordOf.end() && (SelfWord->second & 1);
    if (!Marked)
      KeysOut.push_back(KeyIt->second);
  }
  return true;
}

CorrectnessResult vbl::sched::checkScheduleCorrect(
    const Schedule &Exported,
    const std::vector<std::pair<const void *, SetKey>> &InitialChain,
    const std::vector<SetKey> &UniverseKeys, SpecKind Spec) {
  CorrectnessResult Result;
  const void *HeadNode = InitialChain.front().first;

  // (1) Local serializability of every operation's projection.
  for (const ExportedOp &Op : exportOps(Exported, HeadNode)) {
    std::string Error;
    const bool Ok = Spec == SpecKind::PureLL
                        ? validateAgainstSpec(Op, HeadNode, &Error)
                        : validateAgainstAdjustedSpec(Op, HeadNode,
                                                      &Error);
    if (Ok)
      continue;
    Result.LocallySerializable = false;
    Result.Error = "not locally serializable: " + Error;
    return Result;
  }

  // (2) Linearizability of sigma-bar(v).
  // 2a. Build the high-level history with event indices as timestamps.
  // Range scans are not checked as single history events: each one is
  // lowered to per-key Contains observations (decomposeScans) carrying
  // the scan's full interval — the widened-interval contract. The keys
  // a scan reported are reconstructed from its exported value reads:
  // every in-range val read collects, except (adjusted spec) values
  // whose node's following next-word read carried the deletion mark.
  std::vector<lin::CompletedOp> History;
  std::vector<lin::CompletedScan> Scans;
  std::unordered_map<uint64_t, size_t> InvokeIndex;
  auto opKey = [](const Event &E) {
    return (static_cast<uint64_t>(E.Thread) << 32) | E.OpIndex;
  };
  const auto &Events = Exported.events();
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    if (E.Kind == EventKind::OpBegin)
      InvokeIndex[opKey(E)] = I;
    if (E.Kind == EventKind::OpEnd) {
      const auto It = InvokeIndex.find(opKey(E));
      // Exported schedules of complete episodes always pair begin/end.
      VBL_ASSERT(It != InvokeIndex.end(), "OpEnd without OpBegin");
      SetKey Key = 0;
      SetKey KeyHi = 0;
      for (const Event &B : Events)
        if (B.Kind == EventKind::OpBegin && opKey(B) == opKey(E)) {
          Key = static_cast<SetKey>(B.Value);
          KeyHi = static_cast<SetKey>(B.Value2);
          break;
        }
      if (E.Op == SetOp::RangeQuery) {
        lin::CompletedScan Scan;
        Scan.Lo = Key;
        Scan.Hi = KeyHi;
        Scan.Invoke = It->second;
        Scan.Response = I;
        Scan.Thread = E.Thread;
        for (size_t J = 0; J != Events.size(); ++J) {
          const Event &S = Events[J];
          if (opKey(S) != opKey(E) || S.Kind != EventKind::Read ||
              S.Field != MemField::Val)
            continue;
          const auto Val = static_cast<SetKey>(S.Value);
          if (Val < Key || Val > KeyHi)
            continue;
          bool Marked = false;
          if (Spec == SpecKind::AdjustedLL)
            // The scan reads the node's next word right after its
            // value; bit 0 is the deletion mark it consulted.
            for (size_t K = J + 1; K != Events.size(); ++K) {
              const Event &N = Events[K];
              if (opKey(N) != opKey(E))
                continue;
              if (N.Kind == EventKind::Read &&
                  N.Field == MemField::Next && N.Node == S.Node)
                Marked = (N.Value & 1) != 0;
              break;
            }
          if (!Marked)
            Scan.Keys.push_back(Val);
        }
        Scans.push_back(std::move(Scan));
        continue;
      }
      History.push_back({E.Op, Key, E.Value != 0, It->second, I,
                         E.Thread});
    }
  }
  for (lin::CompletedOp &Op : lin::decomposeScans(Scans, UniverseKeys))
    History.push_back(std::move(Op));

  // 2b. Reconstruct the final list state from the writes.
  std::vector<SetKey> FinalKeys;
  if (!reconstructFinalState(Exported, InitialChain, FinalKeys)) {
    Result.Linearizable = false;
    Result.Error = "final state is not a valid list (lost or cyclic "
                   "links after replaying writes)";
    return Result;
  }
  std::unordered_set<SetKey> FinalSet(FinalKeys.begin(), FinalKeys.end());

  // 2c. Extend with a trailing contains(v) for each universe key.
  const uint64_t End = Events.size() + 1;
  uint64_t Tick = 0;
  for (SetKey Key : UniverseKeys)
    History.push_back({SetOp::Contains, Key, FinalSet.count(Key) == 1,
                       End + Tick, End + (Tick++) + 1, 0});

  // 2d. Initial membership from the chain (user keys only).
  std::vector<SetKey> InitialKeys;
  for (size_t I = 1; I + 1 < InitialChain.size(); ++I)
    InitialKeys.push_back(InitialChain[I].second);

  const lin::LinResult Lin = lin::checkSetHistory(History, InitialKeys);
  if (!Lin.Ok) {
    Result.Linearizable = false;
    Result.Error = "sigma-bar(v) not linearizable: " + Lin.Message;
  }
  return Result;
}
