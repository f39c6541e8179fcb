//===- service/ShardedSet.cpp - Sharded front-end implementation ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "service/ShardedSet.h"

#include <algorithm>
#include <bit>

using namespace vbl;
using namespace vbl::service;

const char *vbl::service::combineModeName(CombineMode Mode) {
  switch (Mode) {
  case CombineMode::Off:
    return "off";
  case CombineMode::On:
    return "on";
  }
  return "?";
}

/// One shard: a backend instance plus its combining state. Heap-held
/// because CombinerShard embeds immovable atomics and a slot array.
struct ShardedSet::Shard {
  std::unique_ptr<ConcurrentSet> Set;
  CombinerShard<ShardedSet::CombinerSlots, TasLock> Combiner;
};

ShardedSet::ShardedSet(const Options &O) : Opts(O) {
  if (Opts.Shards == 0)
    Opts.Shards = 1;
  if (Opts.BatchSize == 0)
    Opts.BatchSize = 1;
  Name = "sharded(" + Opts.Backend + ",s" + std::to_string(Opts.Shards) +
         ",b" + std::to_string(Opts.BatchSize) + "," +
         combineModeName(Opts.Combine) + ")";
}

ShardedSet::~ShardedSet() = default;

std::unique_ptr<ShardedSet> ShardedSet::create(const Options &Opts,
                                               std::string *Error) {
  auto Front = std::unique_ptr<ShardedSet>(new ShardedSet(Opts));
  Front->Shards.reserve(Front->Opts.Shards);
  for (unsigned I = 0; I != Front->Opts.Shards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Set = makeSet(Opts.Backend);
    if (!S->Set) {
      if (Error) {
        *Error = "unknown backend '" + Opts.Backend + "'";
        const std::vector<std::string> Close = suggestSetNames(Opts.Backend);
        if (!Close.empty()) {
          *Error += "; did you mean";
          for (size_t J = 0; J != Close.size(); ++J)
            *Error += (J ? ", " : " ") + Close[J];
          *Error += "?";
        }
        *Error += " (tools/list_backends.py dumps the registry)";
      }
      return nullptr;
    }
    Front->Shards.push_back(std::move(S));
  }
  Front->Combining = Opts.Combine == CombineMode::On &&
                     Front->Shards.front()->Set->readsTakeLocks();
  return Front;
}

bool ShardedSet::insert(SetKey Key) {
  stats::bump(stats::Counter::ServiceOpsDirect);
  return Shards[shardOf(Key)]->Set->insert(Key);
}

bool ShardedSet::remove(SetKey Key) {
  stats::bump(stats::Counter::ServiceOpsDirect);
  return Shards[shardOf(Key)]->Set->remove(Key);
}

bool ShardedSet::contains(SetKey Key) {
  stats::bump(stats::Counter::ServiceOpsDirect);
  return Shards[shardOf(Key)]->Set->contains(Key);
}

size_t ShardedSet::rangeQuery(SetKey Lo, SetKey Hi,
                              std::vector<SetKey> &Out) {
  const size_t Entry = Out.size();
  for (const std::unique_ptr<Shard> &S : Shards)
    S->Set->rangeQuery(Lo, Hi, Out);
  // Each shard appended its keys ascending; the hash partition
  // interleaves them arbitrarily across shards, so sort the tail.
  std::sort(Out.begin() + static_cast<ptrdiff_t>(Entry), Out.end());
  return Out.size() - Entry;
}

size_t ShardedSet::snapshot(std::vector<SetKey> &Out) {
  // Delegate the domain bounds to each shard adapter: hash backends
  // narrow full-set scans to their [0, 2^62) key domain themselves.
  const size_t Entry = Out.size();
  for (const std::unique_ptr<Shard> &S : Shards)
    S->Set->snapshot(Out);
  std::sort(Out.begin() + static_cast<ptrdiff_t>(Entry), Out.end());
  return Out.size() - Entry;
}

std::vector<SetKey> ShardedSet::snapshot() const {
  // Shards partition the key space by hash, not by range: merge and
  // sort to present the set's canonical ascending view.
  std::vector<SetKey> Keys;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::vector<SetKey> Part = S->Set->snapshot();
    Keys.insert(Keys.end(), Part.begin(), Part.end());
  }
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

bool ShardedSet::checkInvariants() const {
  for (unsigned I = 0; I != Shards.size(); ++I) {
    if (!Shards[I]->Set->checkInvariants())
      return false;
    // Routing invariant: every key a shard stores must hash to it —
    // a violation means an op bypassed shardOf.
    for (SetKey Key : Shards[I]->Set->snapshot())
      if (shardOf(Key) != I)
        return false;
  }
  return true;
}

ShardedSet::Session ShardedSet::openSession() {
  // Claim the lowest clear bit. The acquire pairs with the release in
  // Session::close: a holder frees its slot only after its last batch
  // came back drained, so that whole use of the slot happens before
  // this session's first publish in it.
  uint64_t Used = SlotsInUse.load(std::memory_order_relaxed);
  while (Used != ~uint64_t{0}) {
    const unsigned Slot = static_cast<unsigned>(std::countr_one(Used));
    if (SlotsInUse.compare_exchange_weak(Used, Used | (uint64_t{1} << Slot),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed))
      return Session(*this, Slot);
  }
  return Session(*this, CombinerSlots);
}

void ShardedSet::runOnShard(unsigned SessionIdx, unsigned ShardIdx,
                            BatchOp *Ops, uint32_t Count) {
  Shard &S = *Shards[ShardIdx];
  stats::histogramAdd(stats::Histogram::ServiceVisitOps, Count);
  // Backends whose reads take no lock, and sessions beyond the slot
  // array, apply directly: the backend is linearizable either way,
  // combining only amortizes.
  if (!Combining || SessionIdx >= CombinerSlots) {
    S.Set->applyBatch(Ops, Count);
    stats::bump(stats::Counter::ServiceOpsDirect, Count);
    return;
  }
  S.Combiner.execute<DirectPolicy>(
      SessionIdx, Ops, Count,
      [&S](BatchOp *B, uint32_t N) { S.Set->applyBatch(B, N); });
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

ShardedSet::Session::Session(ShardedSet &Parent, unsigned Index)
    : Parent(&Parent), Index(Index), Queues(Parent.Opts.Shards) {
  for (std::vector<BatchOp> &Q : Queues)
    Q.reserve(Parent.Opts.BatchSize);
}

ShardedSet::Session::Session(Session &&Other) noexcept
    : Parent(Other.Parent), Index(Other.Index),
      Queues(std::move(Other.Queues)),
      Completed(std::move(Other.Completed)), Taken(std::move(Other.Taken)),
      CompletedScans(std::move(Other.CompletedScans)),
      Pending(Other.Pending) {
  // Detach the source: a moved-from session must not flush the same
  // queued ops a second time, or free the slot it handed over, from its
  // destructor.
  Other.Parent = nullptr;
  Other.Pending = 0;
}

ShardedSet::Session &
ShardedSet::Session::operator=(Session &&Other) noexcept {
  if (this == &Other)
    return *this;
  close();
  Parent = Other.Parent;
  Index = Other.Index;
  Queues = std::move(Other.Queues);
  Completed = std::move(Other.Completed);
  Taken = std::move(Other.Taken);
  CompletedScans = std::move(Other.CompletedScans);
  Pending = Other.Pending;
  Other.Parent = nullptr;
  Other.Pending = 0;
  return *this;
}

ShardedSet::Session::~Session() {
  // Drain residual below-BatchSize ops: an enqueued op must reach its
  // shard even when the client drops the session without flushing.
  // Then hand the combiner slot back for the next session.
  close();
}

void ShardedSet::Session::enqueue(SetOp Op, SetKey Key, uint64_t Tag) {
  VBL_ASSERT(Parent, "session used after close()/move");
  const unsigned ShardIdx = Parent->shardOf(Key);
  std::vector<BatchOp> &Q = Queues[ShardIdx];
  BatchOp O;
  O.Op = Op;
  O.Key = Key;
  O.Tag = Tag;
  Q.push_back(O);
  ++Pending;
  if (Q.size() >= Parent->Opts.BatchSize)
    flushShard(ShardIdx);
}

void ShardedSet::Session::enqueueRange(SetKey Lo, SetKey Hi,
                                       uint64_t Tag) {
  VBL_ASSERT(Parent, "session used after close()/move");
  flush();
  CompletedScan Scan{Lo, Hi, Tag, {}};
  Parent->rangeQuery(Lo, Hi, Scan.Keys);
  CompletedScans.push_back(std::move(Scan));
}

void ShardedSet::Session::flushShard(unsigned ShardIdx) {
  std::vector<BatchOp> &Q = Queues[ShardIdx];
  if (Q.empty())
    return;
  stats::bump(stats::Counter::ServiceBatchFlushes);
  Parent->runOnShard(Index, ShardIdx, Q.data(),
                     static_cast<uint32_t>(Q.size()));
  Pending -= Q.size();
  Completed.insert(Completed.end(), Q.begin(), Q.end());
  Q.clear();
}

void ShardedSet::Session::flush() {
  for (unsigned I = 0; I != Queues.size(); ++I)
    flushShard(I);
}

void ShardedSet::Session::close() {
  if (!Parent)
    return;
  flush();
  if (Index < CombinerSlots)
    Parent->SlotsInUse.fetch_and(~(uint64_t{1} << Index),
                                 std::memory_order_release);
  Parent = nullptr;
}

const std::vector<BatchOp> &ShardedSet::Session::takeCompleted() {
  Taken.clear();
  Taken.swap(Completed);
  return Taken;
}

std::vector<ShardedSet::Session::CompletedScan>
ShardedSet::Session::takeCompletedScans() {
  std::vector<CompletedScan> Out;
  Out.swap(CompletedScans);
  return Out;
}
