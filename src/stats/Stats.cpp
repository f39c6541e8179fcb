//===- stats/Stats.cpp - Shard registry, aggregation, rendering ----------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "stats/Stats.h"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

namespace vbl {
namespace stats {

const char *counterName(Counter C) {
  switch (C) {
  case Counter::ListTraversals:
    return "list.traversals";
  case Counter::ListTraversalHops:
    return "list.traversal_hops";
  case Counter::ListRestarts:
    return "list.restarts";
  case Counter::ListCasFailures:
    return "list.cas_failures";
  case Counter::ListTrylockFailures:
    return "list.trylock_failures";
  case Counter::ListValidationAborts:
    return "list.validation_aborts";
  case Counter::ListValueValidationAborts:
    return "list.value_validation_aborts";
  case Counter::LockAcquireRetries:
    return "lock.acquire_retries";
  case Counter::LockOptimisticRetries:
    return "lock.optimistic_retries";
  case Counter::EpochRetired:
    return "epoch.retired";
  case Counter::EpochFreed:
    return "epoch.freed";
  case Counter::EpochAdvances:
    return "epoch.advances";
  case Counter::EpochStalls:
    return "epoch.stalls";
  case Counter::HpRetired:
    return "hp.retired";
  case Counter::HpFreed:
    return "hp.freed";
  case Counter::HpScans:
    return "hp.scans";
  case Counter::HpScanKept:
    return "hp.scan_kept";
  case Counter::HpOrphanBacklog:
    return "hp.orphan_backlog";
  case Counter::HpOrphansAdopted:
    return "hp.orphans_adopted";
  case Counter::PoolHits:
    return "pool.hits";
  case Counter::PoolMisses:
    return "pool.misses";
  case Counter::PoolBypass:
    return "pool.bypass";
  case Counter::ChunkSplits:
    return "chunk.splits";
  case Counter::ChunkCompactions:
    return "chunk.compactions";
  case Counter::ChunkUnlinks:
    return "chunk.unlinks";
  case Counter::ChunkMerges:
    return "chunk.merges";
  case Counter::ChunkValidationAborts:
    return "chunk.validation_aborts";
  case Counter::VbrRetired:
    return "reclaim.vbr.retired";
  case Counter::VbrReused:
    return "reclaim.vbr.reused";
  case Counter::VbrFreshAllocs:
    return "reclaim.vbr.fresh_allocs";
  case Counter::VbrClockBumps:
    return "reclaim.vbr.clock_bumps";
  case Counter::VbrBirthRejects:
    return "reclaim.vbr.birth_rejects";
  case Counter::MapBucketInits:
    return "map.bucket_inits";
  case Counter::MapBucketInitChain:
    return "map.bucket_init_chain";
  case Counter::MapResizes:
    return "map.resizes";
  case Counter::MapResizesLost:
    return "map.resizes_lost";
  case Counter::MapResizeGrows:
    return "map.resize.grows";
  case Counter::MapResizeShrinks:
    return "map.resize.shrinks";
  case Counter::MapResizeSegmentsRetired:
    return "map.resize.retired_segments";
  case Counter::ScanRetries:
    return "scan.retries";
  case Counter::ScanFallbacks:
    return "scan.fallbacks";
  case Counter::ScanKeysReturned:
    return "scan.keys_returned";
  case Counter::AnalysisFlowChecks:
    return "analysis.flow_checks";
  case Counter::ServiceOpsDirect:
    return "service.ops_direct";
  case Counter::ServiceOpsCombined:
    return "service.ops_combined";
  case Counter::ServiceCombineRounds:
    return "service.combine_rounds";
  case Counter::ServiceCombineHandoffs:
    return "service.combine_handoffs";
  case Counter::ServiceBatchFlushes:
    return "service.batch_flushes";
  case Counter::NumCounters_:
    break;
  }
  vbl_unreachable("counterName: bad Counter");
}

const char *histogramName(Histogram H) {
  switch (H) {
  case Histogram::TraversalHops:
    return "hist.traversal_hops";
  case Histogram::EpochLag:
    return "hist.epoch_lag";
  case Histogram::ChunkOccupancy:
    return "hist.chunk_occupancy";
  case Histogram::ServiceCombineOps:
    return "hist.service_combine_ops";
  case Histogram::ServiceVisitOps:
    return "hist.service_visit_ops";
  case Histogram::NumHistograms_:
    break;
  }
  vbl_unreachable("histogramName: bad Histogram");
}

#if VBL_STATS

namespace detail {

constinit thread_local Shard *TlsShard = nullptr;

namespace {

/// Every shard ever created plus the exited-thread free list. Created
/// with `new` and never destroyed: TLS destructors of other modules
/// (reclamation domains, the node pool) may bump counters after any
/// static destructor has run.
struct Registry {
  std::mutex Mutex;
  std::vector<Shard *> All;   ///< Owned; never freed (see above).
  std::vector<Shard *> Free;  ///< Parked by exited threads, not zeroed.
  Shard *SharedTeardown = nullptr; ///< Multi-writer fallback shard.
};

Registry &registry() {
  static Registry *R = [] {
    auto *Reg = new Registry;
    Reg->SharedTeardown = new Shard;
    Reg->SharedTeardown->Shared = true;
    Reg->All.push_back(Reg->SharedTeardown);
    return Reg;
  }();
  return *R;
}

/// Set once this thread's shard holder has been destroyed; later bumps
/// (TLS-teardown frees) go to the shared shard with real RMWs.
thread_local bool TlsDead = false;

void releaseShard(Shard *S) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Free.push_back(S);
}

/// RAII owner of the thread's shard: parks it (unzeroed) on exit so
/// totals stay monotonic while episode-spawning tests recycle storage.
struct ShardHolder {
  Shard *S;
  explicit ShardHolder(Shard *S) : S(S) {}
  ~ShardHolder() {
    releaseShard(S);
    TlsShard = nullptr;
    TlsDead = true;
  }
};

Shard *acquireShard() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  if (!R.Free.empty()) {
    Shard *S = R.Free.back();
    R.Free.pop_back();
    return S;
  }
  auto *S = new Shard;
  R.All.push_back(S);
  return S;
}

/// Attaches a shard to the calling thread, or returns the shared
/// teardown shard when the thread's TLS is already unwinding.
Shard *currentShardSlow() {
  if (VBL_UNLIKELY(TlsDead))
    return registry().SharedTeardown;
  thread_local ShardHolder Holder(acquireShard());
  TlsShard = Holder.S;
  return Holder.S;
}

void addAnyCell(Shard *S, std::atomic<uint64_t> &Cell, uint64_t Delta) {
  if (VBL_UNLIKELY(S->Shared)) {
    Cell.fetch_add(Delta, std::memory_order_relaxed);
    return;
  }
  addCell(Cell, Delta);
}

} // namespace

void bumpSlow(Counter C, uint64_t Delta) {
  Shard *S = currentShardSlow();
  addAnyCell(S, S->Counters[static_cast<size_t>(C)], Delta);
}

void histogramAddSlow(Histogram H, uint64_t Value) {
  Shard *S = currentShardSlow();
  addAnyCell(
      S, S->Histograms[static_cast<size_t>(H)][histogramBucket(Value)], 1);
}

} // namespace detail

Snapshot snapshotAll() {
  Snapshot Sum;
  detail::Registry &R = detail::registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (const detail::Shard *S : R.All) {
    for (size_t I = 0; I < NumCounters; ++I)
      Sum.Counters[I] += S->Counters[I].load(std::memory_order_relaxed);
    for (size_t I = 0; I < NumHistograms; ++I)
      for (size_t B = 0; B < HistogramBuckets; ++B)
        Sum.Histograms[I][B] +=
            S->Histograms[I][B].load(std::memory_order_relaxed);
  }
  // list.traversals is derived: every noteTraversal lands in exactly
  // one hop-histogram bucket, so the bucket sum is the traversal count
  // and the hot path saves a cell write (see noteTraversal).
  uint64_t Traversals = 0;
  for (uint64_t B :
       Sum.Histograms[static_cast<size_t>(Histogram::TraversalHops)])
    Traversals += B;
  Sum.Counters[static_cast<size_t>(Counter::ListTraversals)] += Traversals;
  return Sum;
}

#endif // VBL_STATS

std::string renderTable(const Snapshot &S, const char *Indent) {
  std::string Out;
  char Line[160];
  for (size_t I = 0; I < NumCounters; ++I) {
    if (!S.Counters[I])
      continue;
    std::snprintf(Line, sizeof(Line), "%s%-28s %12llu\n", Indent,
                  counterName(static_cast<Counter>(I)),
                  static_cast<unsigned long long>(S.Counters[I]));
    Out += Line;
  }
  for (size_t I = 0; I < NumHistograms; ++I) {
    uint64_t Total = 0;
    for (uint64_t V : S.Histograms[I])
      Total += V;
    if (!Total)
      continue;
    std::snprintf(Line, sizeof(Line), "%s%-28s ", Indent,
                  histogramName(static_cast<Histogram>(I)));
    Out += Line;
    // One "lo-hi:count" cell per non-empty bucket; bucket B holds
    // values with bit_width == B, so [2^(B-1), 2^B).
    for (size_t B = 0; B < HistogramBuckets; ++B) {
      const uint64_t Count = S.Histograms[I][B];
      if (!Count)
        continue;
      const unsigned long long Lo = B == 0 ? 0 : 1ULL << (B - 1);
      if (B == 0)
        std::snprintf(Line, sizeof(Line), "0:%llu ",
                      static_cast<unsigned long long>(Count));
      else if (B == HistogramBuckets - 1)
        std::snprintf(Line, sizeof(Line), "%llu+:%llu ", Lo,
                      static_cast<unsigned long long>(Count));
      else
        std::snprintf(Line, sizeof(Line), "%llu-%llu:%llu ", Lo,
                      (1ULL << B) - 1,
                      static_cast<unsigned long long>(Count));
      Out += Line;
    }
    Out += '\n';
  }
  return Out;
}

void appendJsonFields(const Snapshot &S, std::string &Out) {
  char Buf[96];
  bool First = true;
  for (size_t I = 0; I < NumCounters; ++I) {
    if (!S.Counters[I])
      continue;
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%llu", First ? "" : ",",
                  counterName(static_cast<Counter>(I)),
                  static_cast<unsigned long long>(S.Counters[I]));
    Out += Buf;
    First = false;
  }
  // Non-empty histograms as fixed-width bucket arrays (bucket B holds
  // values with bit_width == B; see histogramBucket).
  for (size_t I = 0; I < NumHistograms; ++I) {
    uint64_t Total = 0;
    for (uint64_t V : S.Histograms[I])
      Total += V;
    if (!Total)
      continue;
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":[", First ? "" : ",",
                  histogramName(static_cast<Histogram>(I)));
    Out += Buf;
    for (size_t B = 0; B < HistogramBuckets; ++B) {
      std::snprintf(Buf, sizeof(Buf), "%s%llu", B ? "," : "",
                    static_cast<unsigned long long>(S.Histograms[I][B]));
      Out += Buf;
    }
    Out += ']';
    First = false;
  }
}

} // namespace stats
} // namespace vbl
