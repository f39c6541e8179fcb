//===- lists/SetInterface.h - Type-erased concurrent set API -------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal virtual interface over every concurrent list in the repo so
/// the benchmark harness, stress tests and examples can treat algorithms
/// uniformly. The virtual dispatch cost is identical across algorithms,
/// so relative benchmark comparisons are unaffected; micro-benchmarks
/// that want zero overhead instantiate the concrete templates directly.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_SETINTERFACE_H
#define VBL_LISTS_SETINTERFACE_H

#include "core/BatchOp.h"
#include "core/SetConfig.h"
#include "stats/Stats.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace vbl {

/// Uniform view of a concurrent integer set.
class ConcurrentSet {
public:
  virtual ~ConcurrentSet();

  /// Adds \p Key; true iff it was absent.
  virtual bool insert(SetKey Key) = 0;
  /// Removes \p Key; true iff it was present.
  virtual bool remove(SetKey Key) = 0;
  /// Membership test.
  virtual bool contains(SetKey Key) = 0;

  /// Applies \p N point ops, writing each `Result` in place. Ops on the
  /// SAME key take effect in array order; ops on distinct keys may be
  /// reordered internally (they commute). The default applies the array
  /// front to back; adapters over lists with a sorted-batch entry point
  /// override this with a single amortized traversal.
  virtual void applyBatch(BatchOp *Ops, size_t N) {
    for (size_t I = 0; I != N; ++I)
      applyOneOf(Ops[I]);
  }

  /// Concurrency-safe range scan: appends the stored keys in
  /// [\p Lo, \p Hi] (inclusive) to \p Out, ascending within one call,
  /// and returns the number of keys appended. Linearizable per key:
  /// each key's presence/absence in the result is justified by some
  /// point inside the scan's interval (the widened-interval contract
  /// lincheck verifies); a fully atomic collect is provided where the
  /// substrate supports it (seqlock-validated chunk windows).
  virtual size_t rangeQuery(SetKey Lo, SetKey Hi,
                            std::vector<SetKey> &Out) = 0;

  /// Concurrency-safe full-set scan: rangeQuery over the whole user-key
  /// domain. Backends with a restricted domain narrow it themselves.
  virtual size_t snapshot(std::vector<SetKey> &Out) {
    return rangeQuery(MinSentinel + 1, MaxSentinel - 1, Out);
  }

  /// Quiescent-only: the user keys currently stored, in order.
  virtual std::vector<SetKey> snapshot() const = 0;
  /// Quiescent-only: structural invariants of the underlying list (for
  /// the chain lists, the flow oracle's at-rest clauses; see
  /// analysis/QuiescentChain.h).
  virtual bool checkInvariants() const = 0;

  /// Registry name of the algorithm backing this instance.
  virtual const std::string &name() const = 0;

  /// Whether membership tests take locks, so concurrent readers
  /// serialize with each other and with updates (coarse and
  /// hand-over-hand locking). False for the optimistic and lock-free
  /// lists, whose reads take no lock at all.
  virtual bool readsTakeLocks() const { return false; }

protected:
  void applyOneOf(BatchOp &O) {
    switch (O.Op) {
    case SetOp::Insert:
      O.Result = insert(O.Key);
      return;
    case SetOp::Remove:
      O.Result = remove(O.Key);
      return;
    case SetOp::Contains:
      O.Result = contains(O.Key);
      return;
    case SetOp::RangeQuery:
      vbl_unreachable("batches carry point ops only");
    }
  }
};

namespace detail {
/// Detects `List.applyBatchSorted(BatchOp *const *, size_t)` — the
/// cursor-reusing single-traversal batch entry point of VblList and
/// VblChunkList.
template <class T, class = void> struct HasSortedBatch : std::false_type {};
template <class T>
struct HasSortedBatch<
    T, std::void_t<decltype(std::declval<T &>().applyBatchSorted(
           static_cast<BatchOp *const *>(nullptr), size_t(0)))>>
    : std::true_type {};

/// Detects the hash sets (restricted [0, 2^62) key domain) by their
/// bucketCount() accessor, so the adapter can narrow full-set scans.
template <class T, class = void> struct HasBucketCount : std::false_type {};
template <class T>
struct HasBucketCount<
    T, std::void_t<decltype(std::declval<T &>().bucketCount())>>
    : std::true_type {};

/// Reads `T::ReadsTakeLocks`, which the lock-reading lists declare;
/// false for every list that does not.
template <class T, class = void> struct ReadsTakeLocks : std::false_type {};
template <class T>
struct ReadsTakeLocks<T, std::void_t<decltype(T::ReadsTakeLocks)>>
    : std::bool_constant<T::ReadsTakeLocks> {};
} // namespace detail

/// Wraps any concrete list type that provides the common template API.
template <class ListT> class SetAdapter final : public ConcurrentSet {
public:
  explicit SetAdapter(std::string Name) : Name(std::move(Name)) {}

  bool insert(SetKey Key) override { return List.insert(Key); }
  bool remove(SetKey Key) override { return List.remove(Key); }
  bool contains(SetKey Key) override { return List.contains(Key); }

  void applyBatch(BatchOp *Ops, size_t N) override {
    if constexpr (detail::HasSortedBatch<ListT>::value) {
      if (N > 1) {
        // Sort pointers, not the array: callers read results out of
        // their own op records by position. Same-key ops MUST keep
        // submission order — the per-key FIFO contract — and within one
        // array address order is submission order, so (Key, address) is
        // a total order that keeps it without a stable sort.
        // Thread-local scratch: an adapter is shared across threads and
        // concurrent batch flushes to the same shard are legal.
        static thread_local std::vector<BatchOp *> Sorted;
        Sorted.resize(N);
        for (size_t I = 0; I != N; ++I)
          Sorted[I] = &Ops[I];
        std::sort(Sorted.begin(), Sorted.end(),
                  [](const BatchOp *A, const BatchOp *B) {
                    if (A->Key != B->Key)
                      return A->Key < B->Key;
                    return std::less<const BatchOp *>()(A, B);
                  });
        List.applyBatchSorted(Sorted.data(), N);
        return;
      }
    }
    ConcurrentSet::applyBatch(Ops, N);
  }

  size_t rangeQuery(SetKey Lo, SetKey Hi,
                    std::vector<SetKey> &Out) override {
    const size_t Returned = List.rangeQuery(Lo, Hi, Out);
    stats::bump(stats::Counter::ScanKeysReturned, Returned);
    return Returned;
  }

  size_t snapshot(std::vector<SetKey> &Out) override {
    if constexpr (detail::HasBucketCount<ListT>::value)
      // Hash sets assert their restricted domain on every scan bound.
      return rangeQuery(0, (SetKey{1} << HashKeyBits) - 1, Out);
    else
      return rangeQuery(MinSentinel + 1, MaxSentinel - 1, Out);
  }
  std::vector<SetKey> snapshot() const override { return List.snapshot(); }
  bool checkInvariants() const override { return List.checkInvariants(); }
  const std::string &name() const override { return Name; }
  bool readsTakeLocks() const override {
    return detail::ReadsTakeLocks<ListT>::value;
  }

  ListT &underlying() { return List; }

private:
  std::string Name;
  ListT List;
};

/// Creates a set by registry name ("vbl", "lazy", "harris-michael",
/// ...); null for unknown names. See Registry.cpp for the full table.
std::unique_ptr<ConcurrentSet> makeSet(const std::string &Name);

/// All registered full-key-domain algorithm names, in registration
/// order. Structures with a restricted key domain (the split-ordered
/// hash sets, which accept only isHashKey values) are excluded; resolve
/// them via makeSet() or enumerate them with registeredHashSetNames().
std::vector<std::string> registeredSetNames();

/// The registered split-ordered hash-set names ([0, 2^62) key domain).
std::vector<std::string> registeredHashSetNames();

/// The subset of names the paper's evaluation compares (VBL, Lazy,
/// Harris-Michael), used as the default series of the figure benches.
std::vector<std::string> paperComparisonSetNames();

/// One registry row for tooling: name, a one-line human description
/// (substrate / reclaim domain / chunk K / lock flavour), and whether
/// the structure accepts the full SetKey domain (hash sets do not).
struct SetDescription {
  std::string Name;
  std::string Describe;
  bool FullKeyDomain = true;
};

/// Every registered structure (lists AND hash sets), registration order.
std::vector<SetDescription> registeredSetDescriptions();

/// The describe string for \p Name; empty if unregistered.
std::string setDescription(const std::string &Name);

/// Registered names closest to the (presumably misspelled) \p Name by
/// edit distance, nearest first; at most \p MaxSuggestions, and only
/// names within a distance that plausibly means "typo" (<= 3 edits or
/// a registered name containing \p Name as a substring).
std::vector<std::string> suggestSetNames(const std::string &Name,
                                         size_t MaxSuggestions = 3);

} // namespace vbl

#endif // VBL_LISTS_SETINTERFACE_H
