//===- lists/CoarseList.h - Coarse-grained locked list -------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simplest correct concurrent list-based set: one global mutex
/// around the sequential algorithm. It accepts almost *no* concurrent
/// schedules (every pair of operations conflicts on the lock), making it
/// the floor of the concurrency spectrum the paper's Section 2 measures,
/// and the sanity baseline in the throughput benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LISTS_COARSELIST_H
#define VBL_LISTS_COARSELIST_H

#include "core/SetConfig.h"
#include "lists/SequentialList.h"

#include <mutex>

namespace vbl {

class CoarseList {
public:
  /// contains() takes the global mutex like every update, so readers
  /// serialize with each other: the sharded front-end combines batches
  /// over this list (SetAdapter::readsTakeLocks).
  static constexpr bool ReadsTakeLocks = true;

  bool insert(SetKey Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Inner.insert(Key);
  }

  bool remove(SetKey Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Inner.remove(Key);
  }

  bool contains(SetKey Key) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Inner.contains(Key);
  }

  size_t rangeQuery(SetKey Lo, SetKey Hi, std::vector<SetKey> &Out) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Inner.rangeQuery(Lo, Hi, Out);
  }

  std::vector<SetKey> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Inner.snapshot();
  }

  bool checkInvariants() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Inner.checkInvariants();
  }

  size_t sizeSlow() const { return snapshot().size(); }

private:
  mutable std::mutex Mutex;
  SequentialList<> Inner;
};

} // namespace vbl

#endif // VBL_LISTS_COARSELIST_H
