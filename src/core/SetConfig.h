//===- core/SetConfig.h - Key type and sentinels for list-based sets -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The set type of the paper stores integers; every list in this repo
/// stores SetKey with the two reserved sentinel values the sequential
/// specification LL uses for head (-inf) and tail (+inf).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_CORE_SETCONFIG_H
#define VBL_CORE_SETCONFIG_H

#include "support/Compiler.h"

#include <cstddef>
#include <cstdint>
#include <limits>

/// Node alignment knob. 64 (one node per cache line) avoids false
/// sharing between a node's lock/mark word and its neighbour; 32 packs
/// two nodes per line, halving footprint and doubling the hit rate of a
/// sequential traversal at the cost of cross-node interference under
/// write contention. The default follows the measurement recorded in
/// EXPERIMENTS.md ("Memory subsystem"): at the paper's contended small
/// ranges the two layouts are within noise single-threaded, and 64 wins
/// once writers contend, so the cache-line layout is the default.
/// Override with -DVBL_NODE_ALIGN=32 to get the packed layout.
#ifndef VBL_NODE_ALIGN
#define VBL_NODE_ALIGN 64
#endif

namespace vbl {

/// Alignment applied to every list node type (`alignas(NodeAlignBytes)`).
inline constexpr unsigned NodeAlignBytes = VBL_NODE_ALIGN;
static_assert(NodeAlignBytes >= alignof(std::int64_t) &&
                  (NodeAlignBytes & (NodeAlignBytes - 1)) == 0,
              "VBL_NODE_ALIGN must be a power of two >= 8");
static_assert(NodeAlignBytes <= CacheLineBytes,
              "VBL_NODE_ALIGN above a cache line buys nothing and breaks "
              "the node pool's slab carving");

/// Element type of the integer set. 64-bit so benchmark key ranges and
/// hash-expanded test keys never collide with the sentinels.
using SetKey = int64_t;

/// head.val: smaller than every user key.
inline constexpr SetKey MinSentinel = std::numeric_limits<SetKey>::min();
/// tail.val: greater than every user key.
inline constexpr SetKey MaxSentinel = std::numeric_limits<SetKey>::max();

/// User keys live strictly between the sentinels.
inline constexpr bool isUserKey(SetKey Key) {
  return Key > MinSentinel && Key < MaxSentinel;
}

/// Key domain of the split-ordered hash sets (src/maps). Bit-reversed
/// split-order keys must fit the SetKey space alongside the per-bucket
/// dummy keys and the two sentinels, which caps user keys at 62 bits;
/// see maps/SplitOrder.h for the arithmetic. Lists accept any isUserKey
/// value; the hash overlays accept only isHashKey values.
inline constexpr int HashKeyBits = 62;
/// Exclusive upper bound of the hash-set key domain.
inline constexpr SetKey MaxHashKey = SetKey(1) << HashKeyBits;

inline constexpr bool isHashKey(SetKey Key) {
  return Key >= 0 && Key < MaxHashKey;
}

/// Construction-time shape of a split-ordered hash set's bucket index
/// and the resize policy that grows and shrinks it through the
/// grace-period table swap (maps/SplitOrderedHashSet.h). The defaults
/// are the registry's shape. Every size is a bucket COUNT and must
/// be a power of two — the index is addressed by masking the mixed
/// hash, so a non-pow2 count silently drops buckets. Historically the
/// constructor rounded bad values up; that silent path is gone:
/// validateHashSetConfig names the exact defect and construction
/// refuses misconfigured tables (see HashSetConfigError).
struct HashSetConfig {
  /// Index capacity at construction (pow2, in [MinBuckets, MaxBuckets]).
  size_t InitialBuckets = 16;
  /// Grow high watermark: double the index once
  /// count > capacity * GrowLoadFactor (mean chain length per bucket).
  size_t GrowLoadFactor = 4;
  /// Hard ceiling the index never grows past (pow2).
  size_t MaxBuckets = size_t(1) << 22;
  /// Floor the index never shrinks below (pow2). Also the "low
  /// watermark" the churn tests expect the table to return to.
  size_t MinBuckets = 1;
  /// Hysteresis between the grow and shrink thresholds: halve the index
  /// only once count * ShrinkDivisor < capacity * GrowLoadFactor, i.e.
  /// occupancy must fall to 1/ShrinkDivisor of the grow trigger before
  /// the table gives memory back. >= 4 guarantees a freshly halved
  /// table is not immediately grow-eligible again (no thrash at a
  /// boundary count).
  size_t ShrinkDivisor = 4;
};

/// Named validation verdicts for HashSetConfig — the registry and the
/// hash-set constructor refuse misconfiguration with one of these
/// instead of silently rounding (see hashSetConfigErrorName).
enum class HashSetConfigError : uint8_t {
  None,                 ///< Config is well-formed.
  InitialNotPowerOfTwo, ///< InitialBuckets is zero or not a power of two.
  MinNotPowerOfTwo,     ///< MinBuckets is zero or not a power of two.
  MaxNotPowerOfTwo,     ///< MaxBuckets is zero or not a power of two.
  BoundsInverted,       ///< Not MinBuckets <= InitialBuckets <= MaxBuckets.
  ZeroLoadFactor,       ///< GrowLoadFactor == 0 (grows on every insert).
  ShrinkDivisorTooSmall,///< ShrinkDivisor < 2 — no hysteresis; grow
                        ///  and shrink thresholds meet and the table
                        ///  thrashes at the boundary.
};

/// Stable diagnostic name for \p E ("InitialNotPowerOfTwo", ...).
inline constexpr const char *hashSetConfigErrorName(HashSetConfigError E) {
  switch (E) {
  case HashSetConfigError::None:
    return "None";
  case HashSetConfigError::InitialNotPowerOfTwo:
    return "InitialNotPowerOfTwo";
  case HashSetConfigError::MinNotPowerOfTwo:
    return "MinNotPowerOfTwo";
  case HashSetConfigError::MaxNotPowerOfTwo:
    return "MaxNotPowerOfTwo";
  case HashSetConfigError::BoundsInverted:
    return "BoundsInverted";
  case HashSetConfigError::ZeroLoadFactor:
    return "ZeroLoadFactor";
  case HashSetConfigError::ShrinkDivisorTooSmall:
    return "ShrinkDivisorTooSmall";
  }
  return "Unknown";
}

inline constexpr bool isPowerOfTwo(size_t X) {
  return X != 0 && (X & (X - 1)) == 0;
}

/// First defect found in \p C, or HashSetConfigError::None. Pure so
/// tests can assert on the named verdict without constructing a set.
inline constexpr HashSetConfigError
validateHashSetConfig(const HashSetConfig &C) {
  if (!isPowerOfTwo(C.InitialBuckets))
    return HashSetConfigError::InitialNotPowerOfTwo;
  if (!isPowerOfTwo(C.MinBuckets))
    return HashSetConfigError::MinNotPowerOfTwo;
  if (!isPowerOfTwo(C.MaxBuckets))
    return HashSetConfigError::MaxNotPowerOfTwo;
  if (C.MinBuckets > C.InitialBuckets || C.InitialBuckets > C.MaxBuckets)
    return HashSetConfigError::BoundsInverted;
  if (C.GrowLoadFactor == 0)
    return HashSetConfigError::ZeroLoadFactor;
  if (C.ShrinkDivisor < 2)
    return HashSetConfigError::ShrinkDivisorTooSmall;
  return HashSetConfigError::None;
}

} // namespace vbl

#endif // VBL_CORE_SETCONFIG_H
