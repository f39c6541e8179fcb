//===- sched/StepScheduler.h - Deterministic step-gated execution --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs N logical threads (real std::threads) under a step token: at
/// any moment either the scheduler or exactly one worker runs. Workers
/// stop at every shared access (TracedPolicy::yield) and the scheduler
/// decides who proceeds — turning thread interleaving from an OS
/// accident into a first-class, explorable input. This is the engine
/// behind the §2.2 schedule experiments.
///
/// Step semantics: after step k of a thread, the thread is parked just
/// before its next shared access; that access executes at the start of
/// its step k+1. A step that tries to acquire a held lock parks the
/// thread (Blocked) until some other thread's step releases the lock.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_SCHED_STEPSCHEDULER_H
#define VBL_SCHED_STEPSCHEDULER_H

#include "sched/Event.h"
#include "sched/TracedPolicy.h"
#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace vbl {
namespace sched {

class StepScheduler {
public:
  /// Spawns one worker per body. Workers do not run until step() grants
  /// them a step.
  explicit StepScheduler(std::vector<std::function<void()>> Bodies);

  /// Drains the episode (all workers must be able to finish — the
  /// deadlock-freedom of the algorithms under test guarantees it) and
  /// joins. Aborts if the residue cannot be drained.
  ~StepScheduler();

  StepScheduler(const StepScheduler &) = delete;
  StepScheduler &operator=(const StepScheduler &) = delete;

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  bool finished(unsigned Thread) const;
  bool blocked(unsigned Thread) const;
  bool runnable(unsigned Thread) const {
    return !finished(Thread) && !blocked(Thread);
  }
  bool allFinished() const;
  std::vector<unsigned> runnableThreads() const;

  /// Grants one step to \p Thread. Pre: runnable(Thread). Returns once
  /// the worker reaches its next yield point, parks on a lock, or
  /// finishes. The step index in the trace equals the number of events
  /// the worker recorded while it ran.
  void step(unsigned Thread);

  /// Steps threads round-robin until all finish. Returns false if no
  /// progress is possible (deadlock) or \p MaxSteps is exhausted.
  bool drain(size_t MaxSteps = size_t(1) << 20);

  /// The raw trace accumulated so far (every recorded event, in global
  /// execution order).
  const std::vector<Event> &trace() const { return Trace; }
  Schedule schedule() const { return Schedule(Trace); }

  /// Results of completed ops, in (thread, op-index) order of OpEnd
  /// events. Convenience over scanning the trace.
  std::vector<Event> opEndEvents() const;

private:
  /// One direction of the step token between the scheduler and one
  /// worker: a binary event with one poster and one waiter that
  /// strictly alternate, since the poster posts again only after the
  /// waiter has consumed the post and handed the token back.
  ///
  /// Protocol on State (Empty, Posted, Sleeping):
  ///   post: exchange Posted (release); if the old value was Sleeping,
  ///         futex-wake the waiter.
  ///   wait: poll for Posted with acquire loads (spinning, then
  ///         yielding; StepScheduler.cpp says when); else CAS Empty to
  ///         Sleeping and futex-wait while the value is Sleeping; then
  ///         reset to Empty.
  /// No wakeup is lost: the kernel blocks the waiter only if State
  /// still holds Sleeping when it queues it, and a post that comes
  /// later reads Sleeping from its exchange and wakes it.
  class Handoff {
  public:
    /// Returns whether the waiter was asleep and had to be woken.
    bool post();
    /// \p Prompt marks a wait for the answer to a post that found its
    /// partner awake (the scheduler waiting out one step of a running
    /// worker), which should come within microseconds; how often it
    /// does decides whether waits spin.
    void wait(bool Prompt);
    bool posted() const {
      return State.load(std::memory_order_acquire) == Posted;
    }

  private:
    enum : uint32_t { Empty, Posted, Sleeping };
    std::atomic<uint32_t> State{Empty};
  };

  /// Worker-side context. State fields are written only by the entity
  /// currently holding the token (worker during its step, scheduler or
  /// the *releasing* worker otherwise); the handoffs provide the
  /// happens-before edges, atomics keep the accesses race-free.
  class Worker : public TraceContext {
  public:
    void yield() override;
    void record(Event E) override;
    void blockOnLock(const void *LockAddr) override;
    void noteLockReleased(const void *LockAddr) override;

    StepScheduler *Parent = nullptr;
    std::function<void()> Body;
    std::thread Thread;
    Handoff Go;
    Handoff Done;
    std::atomic<bool> Finished{false};
    std::atomic<const void *> BlockedOn{nullptr};
  };

  void workerMain(Worker &W);

  std::vector<std::unique_ptr<Worker>> Workers;
  std::vector<Event> Trace;
};

} // namespace sched
} // namespace vbl

#endif // VBL_SCHED_STEPSCHEDULER_H
