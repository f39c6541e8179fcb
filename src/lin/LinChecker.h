//===- lin/LinChecker.h - Linearizability checking for set histories -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides linearizability (§2.1, Herlihy & Wing) of a history of set
/// operations.
///
/// The checker exploits the structure of the set type: an operation on
/// key k reads and writes only k's presence bit, and any two operations
/// on different keys commute in every state. Hence a set history is
/// linearizable iff each per-key projection is linearizable against a
/// single boolean "presence" object — the standard decomposition that
/// turns an NP-hard general problem into independent small searches.
///
/// Each per-key projection is decided with Wing-Gong style DFS over
/// linearization prefixes, memoized on (frontier index, done-mask,
/// presence): cost n * 2^w where w is the history's maximal per-key
/// concurrency (bounded by the thread count), not its length.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LIN_LINCHECKER_H
#define VBL_LIN_LINCHECKER_H

#include "lin/History.h"

#include <string>
#include <vector>

namespace vbl {
namespace lin {

/// Outcome of a linearizability check.
struct LinResult {
  bool Ok = true;
  /// When !Ok: the key whose projection has no linearization.
  SetKey ViolatingKey = 0;
  /// Human-readable description of the violation for test output.
  std::string Message;
};

/// Checks a complete history of set operations, starting from a set
/// containing exactly \p InitialKeys.
///
/// Limitations (documented contract): all operations must be complete
/// (the harness joins threads before checking), and per-key concurrency
/// must not exceed 64 simultaneous operations (MaxWindow).
LinResult checkSetHistory(const std::vector<CompletedOp> &History,
                          const std::vector<SetKey> &InitialKeys);

/// Checks a single-key projection against a boolean presence object.
/// Exposed for unit tests; \p Ops need not be sorted.
bool checkSingleKeyHistory(std::vector<CompletedOp> Ops,
                           bool InitiallyPresent);

/// Lowers range scans to per-key Contains observations suitable for
/// checkSetHistory: for every key of \p Universe inside a scan's
/// [Lo, Hi] window, one synthesized Contains whose result is whether
/// the scan reported the key, carrying the scan's full [Invoke,
/// Response] interval. This is the widened-interval contract: a scan
/// is linearizable per key iff each such observation can be justified
/// at SOME point inside the scan — exactly what the per-key search
/// then decides. Keys outside \p Universe are ignored (a scan cannot
/// be blamed for keys no operation ever touched).
std::vector<CompletedOp>
decomposeScans(const std::vector<CompletedScan> &Scans,
               const std::vector<SetKey> &Universe);

/// What is wrong with the keys one scan over [\p Lo, \p Hi] appended,
/// or an empty string when nothing is: they must be strictly ascending,
/// lie inside the window, and number \p Returned (the scan's own
/// count). decomposeScans reads the keys through a set, so this is the
/// only check a duplicated key (say, a restart that kept its partial
/// collect) meets; run it on every scan before lowering it.
std::string scanOutputError(SetKey Lo, SetKey Hi,
                            const std::vector<SetKey> &Keys,
                            size_t Returned);

} // namespace lin
} // namespace vbl

#endif // VBL_LIN_LINCHECKER_H
