//===- sched/StepScheduler.cpp - Deterministic step-gated execution ------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "sched/StepScheduler.h"

#include "sync/SpinLocks.h"

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

using namespace vbl;
using namespace vbl::sched;

namespace {

// When a wait spins. A step lasts microseconds, while waking a thread
// parked on an idle CPU costs tens of them, so on a host with idle
// cores a waiter should spin. On an oversubscribed host the partner is
// often off-CPU, and a spinning waiter burns the CPU it queues for, so
// waiters should sleep at once. Prompt waits tell the two apart: the
// worker was awake when stepped, so it misses the spin only when it is
// descheduled, which on an idle host is rare (a worker thread still
// starting up) and with eight explorers on four cores is common.
// SpinCredit rises by one per prompt wait the spin answered and falls
// by CreditPerMiss per one it did not, so spinning holds while fewer
// than one in five miss. While the credit is spent, waits go straight
// to yielding and every ProbePeriod-th one re-arms it, so a host that
// has gone idle again is noticed. The constants were tuned on a
// 4-vCPU Xeon VM, where SpinPauses pause instructions take 12 us.
constexpr uint32_t SpinPauses = 512;
constexpr uint32_t CreditMax = 64;
constexpr uint32_t CreditPerMiss = 4;
constexpr uint32_t ProbePeriod = 1024;
// Yields before a sleep. A post often queues the woken partner on the
// poster's own CPU; yielding lets it run there, and its answer then
// needs neither a sleep nor a second wake. With eight explorers on the
// four vCPUs, four yields beat none by 14% and sixteen by 7%.
constexpr uint32_t SleepYields = 4;

// Shared by every handoff in the process; lossy updates are harmless.
std::atomic<uint32_t> SpinCredit{CreditMax};
std::atomic<uint32_t> WaitsSinceProbe{0};

/// Spins until \p Posted holds, while spinning has credit; returns
/// whether it held. Only prompt waits move the credit.
template <class PostedFn> bool spinFor(PostedFn Posted, bool Prompt) {
  const uint32_t Credit = SpinCredit.load(std::memory_order_relaxed);
  if (Credit == 0) {
    const uint32_t Waits = WaitsSinceProbe.load(std::memory_order_relaxed);
    WaitsSinceProbe.store(Waits + 1 == ProbePeriod ? 0 : Waits + 1,
                          std::memory_order_relaxed);
    if (Waits + 1 == ProbePeriod)
      SpinCredit.store(CreditMax, std::memory_order_relaxed);
    return false;
  }
  for (uint32_t I = 0; I != SpinPauses; ++I) {
    if (Posted()) {
      if (Prompt && Credit != CreditMax)
        SpinCredit.store(Credit + 1, std::memory_order_relaxed);
      return true;
    }
    cpuRelax();
  }
  if (Prompt)
    SpinCredit.store(Credit > CreditPerMiss ? Credit - CreditPerMiss : 0,
                     std::memory_order_relaxed);
  return false;
}

} // namespace

bool StepScheduler::Handoff::post() {
  if (State.exchange(Posted, std::memory_order_acq_rel) != Sleeping)
    return false;
  syscall(SYS_futex, &State, FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
  return true;
}

void StepScheduler::Handoff::wait(bool Prompt) {
  bool Arrived = spinFor([this] { return posted(); }, Prompt);
  for (uint32_t I = 0; I != SleepYields && !Arrived; ++I) {
    sched_yield();
    Arrived = posted();
  }
  uint32_t Seen = Empty;
  // Seen comes back Posted when the post landed after the last poll.
  if (!Arrived && State.compare_exchange_strong(Seen, Sleeping,
                                                std::memory_order_acquire,
                                                std::memory_order_acquire)) {
    // Returns on a wake, at once if State moved on, or spuriously.
    do
      syscall(SYS_futex, &State, FUTEX_WAIT_PRIVATE, Sleeping, nullptr,
              nullptr, 0);
    while (!posted());
  }
  State.store(Empty, std::memory_order_relaxed);
}

StepScheduler::StepScheduler(std::vector<std::function<void()>> Bodies) {
  VBL_ASSERT(!Bodies.empty(), "episode needs at least one thread");
  Workers.reserve(Bodies.size());
  for (size_t I = 0; I != Bodies.size(); ++I) {
    auto W = std::make_unique<Worker>();
    W->Parent = this;
    W->ThreadId = static_cast<uint32_t>(I);
    W->Body = std::move(Bodies[I]);
    Workers.push_back(std::move(W));
  }
  // Spawn after the vector is final so Worker addresses are stable.
  for (auto &W : Workers)
    W->Thread = std::thread([this, Raw = W.get()] { workerMain(*Raw); });
}

StepScheduler::~StepScheduler() {
  if (!allFinished() && !drain())
    vbl_unreachable("StepScheduler: episode cannot be drained (deadlock "
                    "in the algorithm under test?)");
  for (auto &W : Workers)
    W->Thread.join();
}

void StepScheduler::workerMain(Worker &W) {
  W.Go.wait(false); // First grant starts the body.
  TraceContext::current() = &W;
  W.Body();
  TraceContext::current() = nullptr;
  W.Finished.store(true, std::memory_order_release);
  W.Done.post();
}

void StepScheduler::Worker::yield() {
  Done.post();
  Go.wait(false);
}

void StepScheduler::Worker::record(Event E) {
  // Only the step-token holder executes, so this append is ordered with
  // every other append.
  Parent->Trace.push_back(E);
}

void StepScheduler::Worker::blockOnLock(const void *LockAddr) {
  BlockedOn.store(LockAddr, std::memory_order_release);
  Done.post();    // End the step that discovered the held lock.
  Go.wait(false); // Parked until noteLockReleased + a fresh grant.
}

void StepScheduler::Worker::noteLockReleased(const void *LockAddr) {
  for (auto &Other : Parent->Workers) {
    const void *Expected = LockAddr;
    Other->BlockedOn.compare_exchange_strong(Expected, nullptr,
                                             std::memory_order_acq_rel);
  }
}

bool StepScheduler::finished(unsigned Thread) const {
  VBL_ASSERT(Thread < Workers.size(), "thread index out of range");
  return Workers[Thread]->Finished.load(std::memory_order_acquire);
}

bool StepScheduler::blocked(unsigned Thread) const {
  VBL_ASSERT(Thread < Workers.size(), "thread index out of range");
  return Workers[Thread]->BlockedOn.load(std::memory_order_acquire) !=
         nullptr;
}

bool StepScheduler::allFinished() const {
  for (unsigned I = 0; I != numThreads(); ++I)
    if (!finished(I))
      return false;
  return true;
}

std::vector<unsigned> StepScheduler::runnableThreads() const {
  std::vector<unsigned> Out;
  for (unsigned I = 0; I != numThreads(); ++I)
    if (runnable(I))
      Out.push_back(I);
  return Out;
}

void StepScheduler::step(unsigned Thread) {
  VBL_ASSERT(runnable(Thread), "stepping a finished or blocked thread");
  Worker &W = *Workers[Thread];
  const bool Woke = W.Go.post();
  W.Done.wait(/*Prompt=*/!Woke);
}

bool StepScheduler::drain(size_t MaxSteps) {
  size_t Steps = 0;
  unsigned Next = 0;
  while (!allFinished()) {
    // Round-robin over runnable threads.
    unsigned Tried = 0;
    while (Tried != numThreads() && !runnable(Next)) {
      Next = (Next + 1) % numThreads();
      ++Tried;
    }
    if (Tried == numThreads())
      return false; // Everyone is finished or blocked: deadlock.
    if (++Steps > MaxSteps)
      return false;
    step(Next);
    Next = (Next + 1) % numThreads();
  }
  return true;
}

std::vector<Event> StepScheduler::opEndEvents() const {
  std::vector<Event> Out;
  for (const Event &E : Trace)
    if (E.Kind == EventKind::OpEnd)
      Out.push_back(E);
  return Out;
}
