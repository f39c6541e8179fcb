//===- lin/History.h - Concurrent operation histories --------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recording of high-level histories (§2.1): invocations and responses
/// of set operations with real-time ordering, captured with per-thread
/// logs so recording never adds synchronization between the threads
/// under test.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LIN_HISTORY_H
#define VBL_LIN_HISTORY_H

#include "core/SetConfig.h"
#include "support/Compiler.h"
#include "support/Timing.h"
#include "sync/Policy.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace vbl {
namespace lin {

/// One completed high-level operation. Invoke/Response are timestamps
/// from one monotonic clock: Op A precedes Op B in real time iff
/// A.Response < B.Invoke (§2.1's ->_H relation).
struct CompletedOp {
  SetOp Op;
  SetKey Key;
  bool Result;
  uint64_t Invoke;
  uint64_t Response;
  uint32_t Thread;
};

/// One completed range scan: the window it covered, the keys it
/// returned, and its real-time interval. Scans are not checked
/// directly; decomposeScans() lowers each one to per-key Contains
/// observations that ride through the standard per-key decomposition.
struct CompletedScan {
  SetKey Lo;
  SetKey Hi;
  std::vector<SetKey> Keys;
  uint64_t Invoke;
  uint64_t Response;
  uint32_t Thread;
};

/// Collects per-thread logs without cross-thread synchronization; the
/// merge happens after the threads under test have joined.
class HistoryRecorder {
public:
  explicit HistoryRecorder(unsigned NumThreads);

  /// The log operations of thread \p ThreadId are recorded into. Must
  /// only be used from that one thread.
  class ThreadLog {
  public:
    void record(SetOp Op, SetKey Key, bool Result, uint64_t Invoke,
                uint64_t Response) {
      Ops.push_back({Op, Key, Result, Invoke, Response, Thread});
    }

  private:
    friend class HistoryRecorder;
    std::vector<CompletedOp> Ops;
    uint32_t Thread = 0;
  };

  ThreadLog &threadLog(unsigned ThreadId) {
    VBL_ASSERT(ThreadId < Logs.size(), "thread id out of range");
    return Logs[ThreadId];
  }

  /// All recorded operations, sorted by invocation time. Call only
  /// after every recording thread has joined.
  std::vector<CompletedOp> merged() const;

  size_t totalOps() const;

private:
  std::vector<ThreadLog> Logs;
};

/// Reads \p Clock between two full barriers. Every timestamp that
/// feeds checkSetHistory must come from here. A bare clock read (the
/// vDSO's `lfence; rdtsc`) does not drain the store buffer, and later
/// loads may run before it, so under load an unfenced response stamp
/// can precede the op's store becoming visible (and an invoke stamp can
/// follow the op's first load). The checker then sees a real-time order
/// the execution never had and reports a false violation.
///
/// Each barrier is a seq_cst read-modify-write of a thread-private
/// word: on x86 a `lock`-prefixed instruction, the same kind GCC emits
/// for a seq_cst fence (`lock or` on the stack). A fence itself does
/// not build under GCC's -fsanitize=thread (-Wtsan), and a private word
/// adds no synchronisation the sanitizer could mistake for a real one.
inline uint64_t fencedStamp(uint64_t (*Clock)() = &nowNanos) {
  thread_local std::atomic<uint32_t> Barrier{0};
  Barrier.fetch_add(1, std::memory_order_seq_cst);
  const uint64_t Stamp = Clock();
  Barrier.fetch_add(1, std::memory_order_seq_cst);
  return Stamp;
}

/// Runs \p Fn as one timed operation and records it: the standard
/// pattern for instrumenting an op call site.
template <class Fn>
bool recordOp(HistoryRecorder::ThreadLog &Log, SetOp Op, SetKey Key,
              Fn &&Call, uint64_t (*Clock)()) {
  const uint64_t Invoke = fencedStamp(Clock);
  const bool Result = Call();
  const uint64_t Response = fencedStamp(Clock);
  Log.record(Op, Key, Result, Invoke, Response);
  return Result;
}

} // namespace lin
} // namespace vbl

#endif // VBL_LIN_HISTORY_H
