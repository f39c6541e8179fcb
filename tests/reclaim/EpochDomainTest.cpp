//===- tests/reclaim/EpochDomainTest.cpp - EBR unit tests ----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "reclaim/EpochDomain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

using namespace vbl;
using namespace vbl::reclaim;

namespace {

/// A payload whose destructor reports into a shared counter.
struct Tracked {
  explicit Tracked(std::atomic<int> &Counter) : Counter(Counter) {}
  ~Tracked() { Counter.fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int> &Counter;
};

std::vector<const void *> sorted(std::vector<const void *> Domains) {
  std::sort(Domains.begin(), Domains.end());
  return Domains;
}

/// The domains this thread holds registry entries for
/// (reclaim/DomainRegistry.h), sorted.
std::vector<const void *> registeredDomains() {
  std::vector<const void *> Domains;
  for (const detail::TlsEntry &Entry : detail::tlsRegistry().Entries)
    Domains.push_back(Entry.Domain);
  return sorted(std::move(Domains));
}

} // namespace

TEST(EpochDomain, RetireEventuallyFrees) {
  std::atomic<int> Destroyed{0};
  {
    EpochDomain Domain;
    for (int I = 0; I != 10; ++I)
      Domain.retire(new Tracked(Destroyed));
    Domain.collectAll();
    // No concurrent guards: three advances make everything safe.
    EXPECT_EQ(Destroyed.load(), 10);
    EXPECT_EQ(Domain.freedCount(), 10u);
    EXPECT_EQ(Domain.retiredCount(), 10u);
  }
  EXPECT_EQ(Destroyed.load(), 10);
}

TEST(EpochDomain, DestructorFreesPending) {
  std::atomic<int> Destroyed{0};
  {
    EpochDomain Domain;
    for (int I = 0; I != 5; ++I)
      Domain.retire(new Tracked(Destroyed));
    // No collectAll: destructor must drain.
  }
  EXPECT_EQ(Destroyed.load(), 5);
}

TEST(EpochDomain, ActiveGuardBlocksReclamation) {
  std::atomic<int> Destroyed{0};
  EpochDomain Domain;

  std::atomic<bool> GuardEntered{false};
  std::atomic<bool> ReleaseGuard{false};
  std::thread Reader([&] {
    EpochDomain::Guard G(Domain);
    GuardEntered.store(true, std::memory_order_release);
    while (!ReleaseGuard.load(std::memory_order_acquire))
      std::this_thread::yield();
  });

  while (!GuardEntered.load(std::memory_order_acquire))
    std::this_thread::yield();

  // Retire AFTER the reader announced: its epoch pins the objects.
  for (int I = 0; I != 3; ++I)
    Domain.retire(new Tracked(Destroyed));
  Domain.collectAll();
  Domain.collectAll();
  EXPECT_EQ(Destroyed.load(), 0) << "freed under an active guard";

  ReleaseGuard.store(true, std::memory_order_release);
  Reader.join();
  Domain.collectAll();
  EXPECT_EQ(Destroyed.load(), 3);
}

TEST(EpochDomain, NestedGuardsAreBalanced) {
  EpochDomain Domain;
  std::atomic<int> Destroyed{0};
  {
    EpochDomain::Guard Outer(Domain);
    {
      EpochDomain::Guard Inner(Domain);
      Domain.retire(new Tracked(Destroyed));
    }
    // The inner exit must not have ended the critical section: a
    // collector on another thread still sees this thread active.
    std::thread([&] { Domain.collectAll(); }).join();
    EXPECT_EQ(Destroyed.load(), 0) << "outer guard still pins the epoch";
  }
  Domain.collectAll();
  EXPECT_EQ(Destroyed.load(), 1);
}

TEST(EpochDomainDeathTest, CollectAllUnderGuardAsserts) {
  // collectAll frees the calling thread's own retired nodes as soon as
  // the epoch allows; doing that inside a guard could free memory the
  // caller's open critical section still dereferences. Regression for
  // the footgun where this was silently permitted.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EpochDomain Domain;
  EXPECT_DEATH(
      {
        EpochDomain::Guard G(Domain);
        Domain.collectAll();
      },
      "collectAll");
}

TEST(EpochDomain, EpochAdvancesWhenQuiescent) {
  EpochDomain Domain;
  const uint64_t Before = Domain.globalEpoch();
  std::atomic<int> Destroyed{0};
  Domain.retire(new Tracked(Destroyed));
  Domain.collectAll();
  EXPECT_GT(Domain.globalEpoch(), Before);
}

TEST(EpochDomain, ThreadExitOrphansAreFreedByDomain) {
  std::atomic<int> Destroyed{0};
  {
    EpochDomain Domain;
    std::thread Worker([&] {
      // Retire from a thread that exits before the domain dies; the
      // retire list must be adopted, not leaked.
      for (int I = 0; I != 4; ++I)
        Domain.retire(new Tracked(Destroyed));
    });
    Worker.join();
    Domain.collectAll();
  }
  EXPECT_EQ(Destroyed.load(), 4);
}

TEST(EpochDomain, OrphanBacklogDrainedByRetirePressure) {
  // detach() parks an exiting thread's retirees on the orphan list;
  // nothing freed them unless someone called collectAll(). The collect
  // that retire pressure triggers must now free the safe ones too.
  constexpr int ChurnThreads = 10;
  constexpr int PerThread = 3; // Below CollectThreshold: no collect.
  std::atomic<int> OrphansDestroyed{0};
  std::atomic<int> JunkDestroyed{0};
  EpochDomain Domain;
  for (int T = 0; T != ChurnThreads; ++T)
    std::thread([&] {
      for (int I = 0; I != PerThread; ++I)
        Domain.retire(new Tracked(OrphansDestroyed));
    }).join();
  EXPECT_EQ(OrphansDestroyed.load(), 0);

  // Main-thread retire pressure, no guard held anywhere: each collect
  // advances the epoch, and the second one ends the orphans' grace
  // period.
  constexpr int Junk = 2 * EpochDomain::CollectThreshold;
  for (int I = 0; I != Junk; ++I)
    Domain.retire(new Tracked(JunkDestroyed));
  EXPECT_EQ(OrphansDestroyed.load(), ChurnThreads * PerThread);

  Domain.collectAll();
  EXPECT_EQ(JunkDestroyed.load(), Junk);
  EXPECT_EQ(Domain.freedCount(), Domain.retiredCount());
}

TEST(EpochDomain, DomainOutlivedByThreadIsSafe) {
  // A thread attaches to a domain that dies before the thread does: the
  // thread's exit hook must skip the dead domain (DomainRegistry).
  std::atomic<int> Destroyed{0};
  std::atomic<bool> DomainDead{false};
  std::atomic<bool> Attached{false};
  std::thread Worker([&] {
    while (!Attached.load(std::memory_order_acquire))
      std::this_thread::yield();
    while (!DomainDead.load(std::memory_order_acquire))
      std::this_thread::yield();
    // Thread exits here, after the domain is gone.
  });
  {
    EpochDomain Domain;
    Domain.retire(new Tracked(Destroyed));
    Attached.store(true, std::memory_order_release);
    // Give the worker no chance to attach: attach happens in *its* TLS
    // only if it uses the domain — it never does; this test covers the
    // main thread's entry instead, plus domain death before process end.
  }
  DomainDead.store(true, std::memory_order_release);
  Worker.join();
  EXPECT_EQ(Destroyed.load(), 1);
}

TEST(EpochDomain, DeadDomainsLeaveTheThreadRegistry) {
  // A thread that outlives many short-lived domains keeps no entry for
  // the dead ones: findThreadRecord scans the list on every attach that
  // misses the one-entry cache.
  size_t Entries = 0;
  std::thread([&] {
    for (int I = 0; I != 1000; ++I) {
      EpochDomain Domain;
      EpochDomain::Guard G(Domain);
    }
    Entries = registeredDomains().size();
  }).join();
  EXPECT_LE(Entries, 2u);
}

TEST(EpochDomain, DomainDestroyedElsewhereLeavesOnNextAttach) {
  auto Dying = std::make_unique<EpochDomain>();
  EpochDomain Living;
  const void *DyingAddr = Dying.get();
  std::atomic<int> Phase{0};
  std::vector<const void *> Before, After, Revisited;
  const void *FreshAddr = nullptr;
  std::thread Worker([&] {
    { EpochDomain::Guard G(*Dying); }
    { EpochDomain::Guard G(Living); }
    Before = registeredDomains();
    Phase.store(1, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    // The first attach after the other thread destroyed Dying drops its
    // entry.
    EpochDomain Fresh;
    FreshAddr = &Fresh;
    { EpochDomain::Guard G(Fresh); }
    After = registeredDomains();
    // Living's record is still found: attaching again adds no entry.
    { EpochDomain::Guard G(Living); }
    Revisited = registeredDomains();
  });
  while (Phase.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();
  Dying.reset();
  Phase.store(2, std::memory_order_release);
  Worker.join();
  EXPECT_EQ(Before, sorted({DyingAddr, &Living}));
  EXPECT_EQ(After, sorted({&Living, FreshAddr}));
  EXPECT_EQ(Revisited, After);
}

TEST(EpochDomain, SlotsAreRecycledAcrossThreadGenerations) {
  // Far more short-lived threads than MaxThreads: exiting threads must
  // hand their slots back or attach would eventually abort.
  EpochDomain Domain;
  std::atomic<int> Destroyed{0};
  for (int Generation = 0; Generation != 40; ++Generation) {
    std::vector<std::thread> Workers;
    for (int T = 0; T != 32; ++T) {
      Workers.emplace_back([&] {
        EpochDomain::Guard G(Domain);
        Domain.retire(new Tracked(Destroyed));
      });
    }
    for (auto &Worker : Workers)
      Worker.join();
  }
  // 40 * 32 = 1280 threads total > MaxThreads (512): recycling worked.
  Domain.collectAll();
  EXPECT_EQ(Domain.retiredCount(), 1280u);
}

TEST(EpochDomain, ConcurrentChurnFreesEverything) {
  constexpr int NumThreads = 4;
  constexpr int PerThread = 2000;
  std::atomic<int> Destroyed{0};
  {
    EpochDomain Domain;
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T) {
      Threads.emplace_back([&] {
        for (int I = 0; I != PerThread; ++I) {
          EpochDomain::Guard G(Domain);
          Domain.retire(new Tracked(Destroyed));
        }
      });
    }
    for (auto &Thread : Threads)
      Thread.join();
    EXPECT_EQ(Domain.retiredCount(),
              static_cast<uint64_t>(NumThreads) * PerThread);
  }
  EXPECT_EQ(Destroyed.load(), NumThreads * PerThread);
}

TEST(EpochDomain, GuardsNeverSeeFreedMemory) {
  // Readers repeatedly dereference a shared node while writers swap and
  // retire it. Any premature free is very likely to crash or trip the
  // poisoned check under the guard.
  struct Payload {
    std::atomic<long> Poison{12345};
    ~Payload() { Poison.store(-1, std::memory_order_relaxed); }
  };
  EpochDomain Domain;
  std::atomic<Payload *> Shared{new Payload()};
  std::atomic<bool> Stop{false};
  std::atomic<bool> SawPoison{false};

  std::vector<std::thread> Readers;
  for (int T = 0; T != 2; ++T) {
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        EpochDomain::Guard G(Domain);
        Payload *P = Shared.load(std::memory_order_acquire);
        if (P->Poison.load(std::memory_order_relaxed) != 12345)
          SawPoison.store(true, std::memory_order_relaxed);
      }
    });
  }
  std::thread Writer([&] {
    for (int I = 0; I != 5000; ++I) {
      Payload *Fresh = new Payload();
      Payload *Old = Shared.exchange(Fresh, std::memory_order_acq_rel);
      EpochDomain::Guard G(Domain);
      Domain.retire(Old);
    }
    Stop.store(true, std::memory_order_release);
  });
  Writer.join();
  for (auto &Reader : Readers)
    Reader.join();
  delete Shared.load();
  EXPECT_FALSE(SawPoison.load());
}
