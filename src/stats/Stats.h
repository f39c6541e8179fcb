//===- stats/Stats.h - Sharded event counters and histograms -------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: a fixed catalogue of event counters plus a
/// few bounded log2 histograms, sharded per thread so the hot paths of
/// the lists, locks and reclamation domains can count events without
/// introducing shared cache lines or lock-prefixed instructions.
///
/// The paper argues in *rejected schedules* — a configuration is slow
/// because its optimistic attempts fail validation, not because its
/// accepted operations are slow — and "In the Search of Optimal
/// Concurrency" (PAPERS.md) makes that the comparison metric. These
/// counters make the rejected work directly observable: restarts,
/// try-lock failures, value-validation aborts, CAS failures, optimistic
/// read retries, plus the reclamation backpressure signals (epoch
/// stalls, HP scan/orphan backlog, pool hit rates) that GCList treats
/// as first-class performance inputs.
///
/// Design:
///  - Each thread owns one cache-line-aligned `Shard` of plain 64-bit
///    cells. The owner bumps with `store(load(relaxed) + d, relaxed)`:
///    a single ADD instruction on x86, no RMW, race-free because only
///    the owner writes. Readers (snapshotAll) see each cell atomically
///    but may observe a mid-flight mixture across cells — snapshots are
///    monotonic per cell, not globally consistent cuts. That is the
///    right contract for delta-based reporting and for the
///    deterministic-scheduler tests, which quiesce before reading.
///  - Shards are never freed. On thread exit a shard is parked on a
///    free list *without zeroing* and handed to the next new thread, so
///    totals stay monotonic and episode-heavy tests (the explorer
///    spawns threads per episode) reuse a bounded pool instead of
///    growing without bound.
///  - A bump after the owning thread's TLS teardown (reclamation
///    domains count frees from TLS destructors) falls back to a shared
///    shard that uses real fetch_add — correctness over speed on a path
///    that runs once per thread.
///  - `VBL_STATS=0` (CMake option -DVBL_STATS=OFF) compiles the layer
///    out entirely: every hook below becomes an empty inline function,
///    snapshots are all-zero, and no storage or TLS exists. Call sites
///    do not need their own #ifdefs.
///
/// Aggregation is pull-based: `snapshotAll()` sums every shard ever
/// created; `Snapshot::delta()` subtracts a baseline. Tests that need
/// exact per-schedule numbers take a snapshot, run one fixed schedule
/// under the deterministic scheduler, and assert on the delta.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_STATS_STATS_H
#define VBL_STATS_STATS_H

#include "support/Compiler.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#ifndef VBL_STATS
#define VBL_STATS 1
#endif

namespace vbl {
namespace stats {

/// The counter catalogue. Names (counterName) follow a dotted
/// "layer.event" convention that is stable across the JSON records,
/// the human-readable table, and DESIGN.md.
enum class Counter : uint16_t {
  // lists/core — the schedule-rejection metrics of §2-§3.
  ListTraversals,           ///< list.traversals: completed traversal loops.
                            ///  Derived at snapshot time from the hop
                            ///  histogram's bucket sum (noteTraversal).
  ListTraversalHops,        ///< list.traversal_hops: nodes visited.
  ListRestarts,             ///< list.restarts: operation restarted from
                            ///  scratch (every Policy::onRestart site).
  ListCasFailures,          ///< list.cas_failures: failed CAS on a link or
                            ///  mark word (Harris-Michael).
  ListTrylockFailures,      ///< list.trylock_failures: VBL try-lock
                            ///  acquired but the identity validation
                            ///  (next unchanged, node live) failed.
  ListValidationAborts,     ///< list.validation_aborts: lock-then-validate
                            ///  window check failed (Lazy §2.3).
  ListValueValidationAborts,///< list.value_validation_aborts: VBL §3.1
                            ///  value-based validation failed.
  // sync.
  LockAcquireRetries,       ///< lock.acquire_retries: blocking lock() spun
                            ///  through at least one failed attempt.
  LockOptimisticRetries,    ///< lock.optimistic_retries: versioned-lock
                            ///  optimistic read observed a writer or
                            ///  failed readValidate.
  // reclaim: epochs.
  EpochRetired,             ///< epoch.retired: nodes handed to an epoch
                            ///  domain.
  EpochFreed,               ///< epoch.freed: nodes whose grace period
                            ///  elapsed and whose deleter ran.
  EpochAdvances,            ///< epoch.advances: successful global-epoch
                            ///  increments.
  EpochStalls,              ///< epoch.stalls: advance blocked by a reader
                            ///  still announcing an older epoch.
  // reclaim: hazard pointers.
  HpRetired,                ///< hp.retired: nodes handed to an HP domain.
  HpFreed,                  ///< hp.freed: nodes freed by a scan.
  HpScans,                  ///< hp.scans: full hazard-array scans.
  HpScanKept,               ///< hp.scan_kept: nodes a scan kept because a
                            ///  hazard slot still protected them.
  HpOrphanBacklog,          ///< hp.orphan_backlog: net orphaned retirees
                            ///  (detach adds, adoption subtracts).
  HpOrphansAdopted,         ///< hp.orphans_adopted: orphaned retirees
                            ///  re-homed onto a live thread's list.
  // reclaim: node pool.
  PoolHits,                 ///< pool.hits: allocations served from the
                            ///  thread-local free list.
  PoolMisses,               ///< pool.misses: allocations that refilled
                            ///  from the global pool (mutex + batch).
  PoolBypass,               ///< pool.bypass: allocations routed to plain
                            ///  operator new (bypass mode or oversize).
  // chunked (unrolled) lists.
  ChunkSplits,              ///< chunk.splits: full chunk frozen and
                            ///  replaced by two halves.
  ChunkCompactions,         ///< chunk.compactions: chunk with dead slots
                            ///  but no clean slot frozen and replaced by
                            ///  one compacted copy.
  ChunkUnlinks,             ///< chunk.unlinks: logically-empty chunk
                            ///  marked and unlinked (Harris-style).
  ChunkMerges,              ///< chunk.merges: an underfull chunk and
                            ///  its successor frozen and replaced by
                            ///  one combined chunk.
  ChunkValidationAborts,    ///< chunk.validation_aborts: lock-held
                            ///  revalidation of a chunk failed; the
                            ///  operation re-traversed.
  // reclaim: version-based reclamation.
  VbrRetired,               ///< reclaim.vbr.retired: blocks stamped with a
                            ///  retire epoch and pushed to a free list.
  VbrReused,                ///< reclaim.vbr.reused: allocations served by
                            ///  reviving a retired block in place.
  VbrFreshAllocs,           ///< reclaim.vbr.fresh_allocs: allocations that
                            ///  minted a never-used block from the pool.
  VbrClockBumps,            ///< reclaim.vbr.clock_bumps: version-clock
                            ///  advances forced by reusing a block whose
                            ///  retire epoch equals the current clock.
  VbrBirthRejects,          ///< reclaim.vbr.birth_rejects: reads that saw
                            ///  a birth epoch newer than the operation's
                            ///  start version and restarted.
  // maps.
  MapBucketInits,           ///< map.bucket_inits: lazy dummy-node splices.
  MapBucketInitChain,       ///< map.bucket_init_chain: parent links walked
                            ///  (recursion depth) across bucket inits.
  MapResizes,               ///< map.resizes: bucket-index doublings won.
  MapResizesLost,           ///< map.resizes_lost: doublings lost to a
                            ///  concurrent winner (allocated, discarded).
  MapResizeGrows,           ///< map.resize.grows: index swaps that doubled
                            ///  the capacity (policy-driven engine; a
                            ///  subset of map.resizes accounting).
  MapResizeShrinks,         ///< map.resize.shrinks: index swaps that
                            ///  halved the capacity after the load fell
                            ///  under the low watermark.
  MapResizeSegmentsRetired, ///< map.resize.retired_segments: displaced
                            ///  bucket-index arrays handed to the reclaim
                            ///  domain (grace-period table swap).
  // range scans (rangeQuery/snapshot across every backend).
  ScanRetries,              ///< scan.retries: optimistic multi-chunk
                            ///  window collects whose version
                            ///  revalidation failed and re-ran.
  ScanFallbacks,            ///< scan.fallbacks: scans that exhausted the
                            ///  retry budget and finished under
                            ///  per-chunk locks.
  ScanKeysReturned,         ///< scan.keys_returned: keys handed back by
                            ///  rangeQuery/snapshot calls.
  // analysis.
  AnalysisFlowChecks,       ///< analysis.flow_checks: flow-invariant heap
                            ///  snapshots taken (one per scheduler step
                            ///  per flow-checked episode).
  // service (sharded front-end).
  ServiceOpsDirect,         ///< service.ops_direct: ops applied on the
                            ///  direct per-op path (no combining).
  ServiceOpsCombined,       ///< service.ops_combined: ops applied inside
                            ///  a combine round (own + drained).
  ServiceCombineRounds,     ///< service.combine_rounds: combiner-lock
                            ///  epochs (one per lock hold that drained
                            ///  publication slots).
  ServiceCombineHandoffs,   ///< service.combine_handoffs: published
                            ///  batches completed by ANOTHER session's
                            ///  combiner (the waiter never took the lock).
  ServiceBatchFlushes,      ///< service.batch_flushes: session shard-queue
                            ///  drains (one backend visit per flush).
  NumCounters_
};

inline constexpr size_t NumCounters = static_cast<size_t>(Counter::NumCounters_);

/// Dotted stable name for \p C ("list.restarts", ...).
const char *counterName(Counter C);

/// Bounded histograms: 16 log2 buckets; bucket B counts values with
/// bit_width(V) == B (bucket 0 is exactly zero), the last bucket
/// absorbs everything >= 2^14.
enum class Histogram : uint16_t {
  TraversalHops,  ///< hist.traversal_hops: nodes visited per traversal.
  EpochLag,       ///< hist.epoch_lag: global minus oldest announced epoch
                  ///  sampled at every failed advance (reader lag depth).
  ChunkOccupancy, ///< hist.chunk_occupancy: live keys per chunk, sampled
                  ///  on every structural-path lock acquisition (split
                  ///  or compaction decision, unlink, merge validation),
                  ///  so long-stable chunks report their steady-state
                  ///  population too. Observability only: the merge
                  ///  trigger reads the chunk's own occupancy word.
  ServiceCombineOps, ///< hist.service_combine_ops: ops drained per
                     ///  combine round (own batch + every published batch
                     ///  the round picked up).
  ServiceVisitOps,   ///< hist.service_visit_ops: ops applied per shard
                     ///  visit (batch-flush size; 1 on the per-op path).
  NumHistograms_
};

inline constexpr size_t NumHistograms =
    static_cast<size_t>(Histogram::NumHistograms_);
inline constexpr size_t HistogramBuckets = 16;

/// Dotted stable name for \p H ("hist.traversal_hops", ...).
const char *histogramName(Histogram H);

/// Bucket index a value falls into (log2 rule above).
inline constexpr size_t histogramBucket(uint64_t Value) {
  const size_t Width = static_cast<size_t>(std::bit_width(Value));
  return Width < HistogramBuckets ? Width : HistogramBuckets - 1;
}

/// A point-in-time sum over every shard. Plain data: copy, subtract,
/// serialize freely.
struct Snapshot {
  std::array<uint64_t, NumCounters> Counters{};
  std::array<std::array<uint64_t, HistogramBuckets>, NumHistograms>
      Histograms{};

  uint64_t get(Counter C) const {
    return Counters[static_cast<size_t>(C)];
  }
  const std::array<uint64_t, HistogramBuckets> &hist(Histogram H) const {
    return Histograms[static_cast<size_t>(H)];
  }

  /// Events since \p Since (counters are monotonic, so plain unsigned
  /// subtraction; HpOrphanBacklog is the one up/down counter and wraps
  /// mod 2^64, which subtraction also handles).
  Snapshot delta(const Snapshot &Since) const {
    Snapshot D;
    for (size_t I = 0; I < NumCounters; ++I)
      D.Counters[I] = Counters[I] - Since.Counters[I];
    for (size_t I = 0; I < NumHistograms; ++I)
      for (size_t B = 0; B < HistogramBuckets; ++B)
        D.Histograms[I][B] = Histograms[I][B] - Since.Histograms[I][B];
    return D;
  }

  /// True when every cell is zero (delta of an idle interval).
  bool empty() const {
    for (uint64_t V : Counters)
      if (V)
        return false;
    for (const auto &H : Histograms)
      for (uint64_t V : H)
        if (V)
          return false;
    return true;
  }

  Snapshot &operator+=(const Snapshot &O) {
    for (size_t I = 0; I < NumCounters; ++I)
      Counters[I] += O.Counters[I];
    for (size_t I = 0; I < NumHistograms; ++I)
      for (size_t B = 0; B < HistogramBuckets; ++B)
        Histograms[I][B] += O.Histograms[I][B];
    return *this;
  }
};

#if VBL_STATS

/// True in builds that carry the layer; lets tests and the harness gate
/// assertions/reporting without preprocessor checks at every site.
inline constexpr bool Enabled = true;

namespace detail {

/// One thread's private cells. Cells are atomic only so snapshotAll can
/// read them without a data race; the owner is the only writer.
struct alignas(CacheLineBytes) Shard {
  std::array<std::atomic<uint64_t>, NumCounters> Counters{};
  std::array<std::array<std::atomic<uint64_t>, HistogramBuckets>,
             NumHistograms>
      Histograms{};
  /// The post-TLS-teardown fallback shard is written by many threads
  /// and must use real RMWs; owner shards never set this.
  bool Shared = false;
};

/// The calling thread's shard, or null before first use / after TLS
/// teardown. Header-visible so bump() is a load + test + add when hot.
/// constinit: the slot is constant-initialized, so every call site reads
/// it directly instead of first calling the TLS init wrapper a plain
/// `extern thread_local` forces on each access from another TU.
extern constinit thread_local Shard *TlsShard;

/// Slow path: attach a shard to this thread (or route to the shared
/// teardown shard) and apply the bump there.
void bumpSlow(Counter C, uint64_t Delta);
void histogramAddSlow(Histogram H, uint64_t Value);

inline void addCell(std::atomic<uint64_t> &Cell, uint64_t Delta) {
  // Owner-only write: a plain add, not a lock-prefixed RMW.
  Cell.store(Cell.load(std::memory_order_relaxed) + Delta,
             std::memory_order_relaxed);
}

} // namespace detail

/// Count \p Delta occurrences of \p C on the calling thread.
inline void bump(Counter C, uint64_t Delta = 1) {
  detail::Shard *S = detail::TlsShard;
  if (VBL_LIKELY(S != nullptr)) {
    detail::addCell(S->Counters[static_cast<size_t>(C)], Delta);
    return;
  }
  detail::bumpSlow(C, Delta);
}

/// Record \p Value in histogram \p H.
inline void histogramAdd(Histogram H, uint64_t Value) {
  detail::Shard *S = detail::TlsShard;
  if (VBL_LIKELY(S != nullptr)) {
    detail::addCell(
        S->Histograms[static_cast<size_t>(H)][histogramBucket(Value)], 1);
    return;
  }
  detail::histogramAddSlow(H, Value);
}

/// One completed traversal of \p Hops node visits: bumps
/// list.traversal_hops and the hop histogram with a single shard
/// lookup. The traversal loops accumulate Hops in a local and call
/// this once — never bump inside the pointer-chase. list.traversals is
/// *derived* in snapshotAll as the histogram's bucket sum (every
/// traversal lands in exactly one bucket), which keeps this path — the
/// only stats call on a successful read — at two cell writes. It runs
/// once per ~40ns operation on the fastest structures, so each cell
/// here is a measurable fraction of a percent of throughput.
inline void noteTraversal(uint64_t Hops) {
  detail::Shard *S = detail::TlsShard;
  if (VBL_UNLIKELY(S == nullptr)) {
    detail::bumpSlow(Counter::ListTraversalHops, Hops);
    detail::histogramAddSlow(Histogram::TraversalHops, Hops);
    return;
  }
  detail::addCell(
      S->Counters[static_cast<size_t>(Counter::ListTraversalHops)], Hops);
  detail::addCell(S->Histograms[static_cast<size_t>(
                      Histogram::TraversalHops)][histogramBucket(Hops)],
                  1);
}

/// Sum of every shard ever created (live, parked and shared). Cells are
/// read individually; quiesce first for exact numbers.
Snapshot snapshotAll();

#else // !VBL_STATS

inline constexpr bool Enabled = false;

inline void bump(Counter, uint64_t = 1) {}
inline void histogramAdd(Histogram, uint64_t) {}
inline void noteTraversal(uint64_t) {}
inline Snapshot snapshotAll() { return Snapshot{}; }

#endif // VBL_STATS

/// Renders the non-zero rows of \p S as an aligned two-column table
/// (plus histogram rows as "bucket:count" runs), one line per row, for
/// the per-structure report the benches print under --stats. Returns
/// "" when everything is zero (or the layer is compiled out).
std::string renderTable(const Snapshot &S, const char *Indent = "  ");

/// Appends the non-zero counters of \p S to \p Out as a JSON object
/// body fragment: `"list.restarts":12,"hp.scans":3` (no braces). The
/// vbl-bench-v1 writer wraps it; bench_compare.py ignores the key.
void appendJsonFields(const Snapshot &S, std::string &Out);

} // namespace stats
} // namespace vbl

#endif // VBL_STATS_STATS_H
