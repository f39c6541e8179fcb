//===- service/ShardedSet.h - Key-space-sharded serving front-end --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving front-end of the repo's "millions of users" scenario: a
/// ShardedSet partitions the key space across S instances of any
/// registered backend (list or split-ordered hash) and offers three
/// access disciplines through per-client Sessions:
///
///  - direct: every op routed straight to its shard (the naive
///    baseline; also what the plain ConcurrentSet methods do),
///  - batched: ops queue per (session, shard) and are applied B at a
///    time per shard visit — the shard adapter sorts the batch and
///    applies it in ONE amortized traversal under one reclaim guard
///    (applyBatchSorted of VblList and VblChunkList),
///  - flat-combined: a session publishes its batch in a per-shard slot
///    and either finds it drained by another session's combine round or
///    takes the combiner lock and drains everyone (FlatCombiner.h).
///    Only backends whose reads take locks combine (CombineMode::On);
///    every other backend takes the batched path.
///
/// Per-key linearizability: shardOf is a pure function of the key, so
/// all ops on one key serialize through one linearizable backend
/// instance; ops on distinct keys commute, so cross-shard (and
/// in-batch cross-key) reordering is unobservable per key. Within a
/// batch, same-key ops keep submission order (the adapter sorts by key,
/// then by position in the batch). A batched
/// op's linearization point lies between enqueue and flush-return,
/// inside its widened interval — the history recorder in the tests
/// stamps exactly that interval.
///
/// Key domain: the front-end accepts whatever its backend accepts
/// (hash backends require isHashKey values); it adds no restriction of
/// its own.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_SERVICE_SHARDEDSET_H
#define VBL_SERVICE_SHARDEDSET_H

#include "lists/SetInterface.h"
#include "service/FlatCombiner.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vbl {
namespace service {

/// Per-shard access discipline for Session-routed operations.
///
/// Combining serializes a shard's batches behind one combiner. That
/// pays only where the backend serializes its readers anyway
/// (ConcurrentSet::readsTakeLocks: `coarse`, `hand-over-hand`): one
/// combiner walking the shard beats sessions queueing on the list's
/// own locks. The optimistic and lock-free backends (the VBL family,
/// lazy, Harris-Michael, ...) accept concurrent readers and writers,
/// so under On their sessions apply batches directly, side by side,
/// rather than wait for a combiner.
enum class CombineMode : uint8_t {
  Off, ///< Always direct (per-op or batched) backend access.
  On,  ///< Shard visits combine where the backend's reads take locks.
};

const char *combineModeName(CombineMode Mode);

/// SplitMix64 finalizer over the raw key bits: shardOf must spread
/// adjacent keys (Zipfian rank 0..k hot sets are adjacent integers)
/// across shards, and must be a pure function of the key so per-key
/// ops always meet in the same shard.
inline uint64_t mixKey(SetKey Key) {
  uint64_t X = static_cast<uint64_t>(Key);
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

class ShardedSet final : public ConcurrentSet {
public:
  /// Publication slots per shard. A session holds one slot index from
  /// openSession until close or destruction; sessions opened while
  /// every slot is held fall back to the direct path (combining is an
  /// amortization, not a correctness requirement, so overflow degrades
  /// gracefully).
  static constexpr unsigned CombinerSlots = 64;

  struct Options {
    std::string Backend = "vbl";
    unsigned Shards = 8;
    /// Ops queued per (session, shard) before a flush; 1 = per-op.
    unsigned BatchSize = 1;
    /// On combines only over a backend whose reads take locks; see
    /// CombineMode.
    CombineMode Combine = CombineMode::Off;
  };

  /// Builds the front-end, resolving Options::Backend through the
  /// registry. Unknown names return null and set \p Error to a message
  /// naming the closest registered backends (suggestSetNames).
  static std::unique_ptr<ShardedSet> create(const Options &Opts,
                                            std::string *Error = nullptr);

  ~ShardedSet() override;

  unsigned shardOf(SetKey Key) const {
    return static_cast<unsigned>(mixKey(Key) % Opts.Shards);
  }

  const Options &options() const { return Opts; }

  //===--------------------------------------------------------------===//
  // ConcurrentSet interface: direct-routed per-op access (prefill, the
  // generic differential suites, invariant checks). Sessions are the
  // batched/combined hot path.
  //===--------------------------------------------------------------===//

  bool insert(SetKey Key) override;
  bool remove(SetKey Key) override;
  bool contains(SetKey Key) override;
  /// Shards partition by key HASH, not by range, so every shard can
  /// hold keys anywhere in [Lo, Hi]: scan them all, then sort the
  /// appended tail into the canonical ascending order. Atomicity is
  /// per shard (each shard's scan is its backend's); across shards the
  /// scan is linearizable per key, same widened-interval contract as a
  /// batched point op.
  size_t rangeQuery(SetKey Lo, SetKey Hi,
                    std::vector<SetKey> &Out) override;
  size_t snapshot(std::vector<SetKey> &Out) override;
  std::vector<SetKey> snapshot() const override;
  bool checkInvariants() const override;
  const std::string &name() const override { return Name; }

  //===--------------------------------------------------------------===//
  // Sessions.
  //===--------------------------------------------------------------===//

  /// One client's handle: owns per-shard op queues and a combiner slot,
  /// which it returns to the front-end on close or destruction. Not
  /// thread-safe (one session per client/thread); any number of
  /// sessions may operate concurrently.
  class Session {
  public:
    /// One completed range scan: the window, the caller's tag, and the
    /// merged ascending keys from every shard.
    struct CompletedScan {
      SetKey Lo;
      SetKey Hi;
      uint64_t Tag;
      std::vector<SetKey> Keys;
    };

    /// Sessions move (openSession returns by value) but do not copy;
    /// the move hands over the combiner slot, and the moved-from
    /// session detaches so it neither flushes nor touches the
    /// front-end again.
    Session(Session &&Other) noexcept;
    Session &operator=(Session &&Other) noexcept;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /// Flushes any residual queued ops, then returns the combiner
    /// slot: an op enqueued on a live front-end is applied even if the
    /// client never reaches an explicit flush (sessions are dropped
    /// mid-batch on shutdown).
    ~Session();

    /// Queues an op; flushes its shard queue once BatchSize ops are
    /// pending there. \p Tag rides along untouched (timestamps).
    void enqueue(SetOp Op, SetKey Key, uint64_t Tag = 0);

    /// Runs a range scan over [\p Lo, \p Hi] through
    /// ShardedSet::rangeQuery, after flushing every queue so the scan
    /// sees each op this session enqueued before it. A scan does not
    /// commute with in-range updates, so it never joins a batch;
    /// takeCompletedScans() yields its merged ascending keys.
    void enqueueRange(SetKey Lo, SetKey Hi, uint64_t Tag = 0);

    /// Flushes every non-empty shard queue.
    void flush();

    /// Flushes, returns the combiner slot and detaches from the
    /// front-end. Completed results remain takeable; further enqueues
    /// are a bug (asserted).
    void close();

    /// Completed point ops accumulated by flushes since the last take,
    /// in completion order (per-shard queue order within a flush). The
    /// reference stays valid, and its contents unchanged, until this
    /// session's next takeCompleted(), move or destruction: the session
    /// swaps the two buffers, so a take in steady state allocates
    /// nothing.
    const std::vector<BatchOp> &takeCompleted();

    /// Scans completed since the last take, in enqueue order.
    std::vector<CompletedScan> takeCompletedScans();

    size_t pendingOps() const { return Pending; }

  private:
    friend class ShardedSet;
    Session(ShardedSet &Parent, unsigned Index);

    void flushShard(unsigned ShardIdx);

    ShardedSet *Parent;
    unsigned Index; // combiner slot; CombinerSlots when none was free
    std::vector<std::vector<BatchOp>> Queues; // one per shard
    std::vector<BatchOp> Completed;
    std::vector<BatchOp> Taken; // what the last takeCompleted() returned
    std::vector<CompletedScan> CompletedScans;
    size_t Pending = 0;
  };

  /// Opens a new session holding the lowest free combiner slot.
  /// Thread-safe; hand each client thread its own.
  Session openSession();

private:
  explicit ShardedSet(const Options &Opts);

  struct Shard;

  /// Applies \p Count ops (all mapping to \p ShardIdx) through the
  /// configured discipline on behalf of session \p SessionIdx.
  void runOnShard(unsigned SessionIdx, unsigned ShardIdx, BatchOp *Ops,
                  uint32_t Count);

  Options Opts;
  std::string Name;
  std::vector<std::unique_ptr<Shard>> Shards;
  /// Combine is On and the backend's reads take locks: session visits
  /// run through each shard's CombinerShard, else straight into the
  /// backend.
  bool Combining = false;
  /// Bit i set while a session holds combiner slot i.
  std::atomic<uint64_t> SlotsInUse{0};
  static_assert(CombinerSlots == 64, "SlotsInUse has one bit per slot");
};

} // namespace service
} // namespace vbl

#endif // VBL_SERVICE_SHARDEDSET_H
