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

namespace vbl {

/// One point operation of a submitted batch. `Result` is written by
/// the set that applies the batch; `Tag` is opaque to every backend and
/// carried through untouched (the service layer stores enqueue
/// timestamps in it).
///
/// Batches carry point ops only. Ops on distinct keys commute, so a
/// batch may be reordered freely; a range scan does not commute with
/// in-range updates, so scans run through `rangeQuery` on their own.
struct BatchOp {
  SetOp Op = SetOp::Contains;
  SetKey Key = 0;
  bool Result = false;
  uint64_t Tag = 0;
};

/// The per-op loop of every list's `applyBatchSorted`. \p Ops holds
/// pointers into one array, in ascending key order, with same-key ops
/// in submission order (ascending address). That is the per-key FIFO
/// contract, so it is asserted here rather than trusted: an
/// insert(k);remove(k) pair handed over swapped would silently change
/// both results. Each op's Result is what the list's matching core
/// returns.
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
