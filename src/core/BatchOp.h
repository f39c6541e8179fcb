//===- core/BatchOp.h - One operation of a submitted batch ---------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of batched submission shared by the list layer (which
/// applies sorted batches in one amortized traversal), the type-erased
/// ConcurrentSet interface, and the service front-end (which queues and
/// flat-combines these records), plus the one per-op loop behind every
/// list's sorted-batch entry point.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_CORE_BATCHOP_H
#define VBL_CORE_BATCHOP_H

#include "core/SetConfig.h"
#include "sync/Policy.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace vbl {

/// One operation of a submitted batch. `Result` is written by the set
/// that applies the batch; `Tag` is opaque to every backend and carried
/// through untouched (the service layer stores enqueue timestamps in
/// it).
///
/// RangeQuery ops scan [Key, KeyHi] and append the keys found to
/// `*Keys` (ascending within one backend visit); `Result` reports
/// whether the scan returned at least one key. `KeyHi`/`Keys` are
/// ignored by the point ops.
struct BatchOp {
  SetOp Op = SetOp::Contains;
  SetKey Key = 0;
  SetKey KeyHi = 0;
  bool Result = false;
  uint64_t Tag = 0;
  std::vector<SetKey> *Keys = nullptr;
};

/// The per-op loop of every list's `applyBatchSorted`. \p Ops holds
/// pointers into one array, in ascending key order, with same-key ops
/// in submission order (ascending address). That is the per-key FIFO
/// contract, so it is asserted here rather than trusted: an
/// insert(k);remove(k) pair handed over swapped would silently change
/// both results. Sorted batches carry point ops only (SetAdapter runs
/// every scan on its own). Each op's Result is what the list's matching
/// core returns.
template <class InsertFn, class RemoveFn, class ContainsFn>
void applySortedPointOps(BatchOp *const *Ops, size_t N, InsertFn &&Insert,
                         RemoveFn &&Remove, ContainsFn &&Contains) {
  for (size_t I = 0; I != N; ++I) {
    BatchOp &O = *Ops[I];
    VBL_ASSERT(isUserKey(O.Key), "sentinel keys are reserved");
    VBL_ASSERT(I == 0 || Ops[I - 1]->Key < O.Key ||
                   (Ops[I - 1]->Key == O.Key &&
                    std::less<const BatchOp *>()(Ops[I - 1], Ops[I])),
               "same-key batch ops must stay in submission order");
    switch (O.Op) {
    case SetOp::Insert:
      O.Result = Insert(O.Key);
      break;
    case SetOp::Remove:
      O.Result = Remove(O.Key);
      break;
    case SetOp::Contains:
      O.Result = Contains(O.Key);
      break;
    case SetOp::RangeQuery:
      vbl_unreachable("sorted batches carry point ops only");
    }
  }
}

} // namespace vbl

#endif // VBL_CORE_BATCHOP_H
