//===- reclaim/DomainRegistry.h - Thread/domain attachment bookkeeping ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for reclamation domains that hand out per-thread
/// records. Two lifetime problems are solved here once:
///
///  1. A thread exits while still attached to a domain: its thread-local
///     registry must hand the record back — but only if the domain is
///     still alive.
///  2. A domain dies, then a new domain is allocated at the same address:
///     stale thread-local entries must not match it. Every domain gets a
///     never-reused 64-bit id, and a thread drops its entries for dead
///     domains on its next attach.
///
/// The global mutex is taken only on attach, detach, domain construction
/// and destruction — never on the guard fast path.
///
/// attachThreadRecord() is the one attach path every such domain runs:
/// an inline hit in a 16-entry per-thread cache indexed by domain id (a
/// load and a compare), and an out-of-line slow path that looks the
/// thread's record up in the registry or claims a free slot for it.
///
/// It also holds the pieces of the domains' read-line rule: the word
/// every guard reads sits on a line of its own (LineOwned), and
/// per-operation counts are owner-written record cells (addOwnedCount,
/// sumRecordCounts).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_DOMAINREGISTRY_H
#define VBL_RECLAIM_DOMAINREGISTRY_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace vbl {
namespace reclaim {

/// Callback a domain supplies so an exiting thread can return its record.
/// Runs under the registry mutex with the domain confirmed alive.
using DetachFn = void (*)(void *Domain, void *Record);

namespace detail {

struct RegistryState {
  std::mutex Mutex;
  std::unordered_set<uint64_t> LiveDomains;
  uint64_t NextDomainId = 1;
};

inline RegistryState &registryState() {
  // Function-local static: constructed on first use, so no global
  // constructor ordering issues (per LLVM's static-constructor rule).
  static RegistryState State;
  return State;
}

struct TlsEntry {
  uint64_t DomainId;
  void *Domain;
  void *Record;
  DetachFn Detach;
};

struct TlsRegistry {
  std::vector<TlsEntry> Entries;

  ~TlsRegistry() {
    RegistryState &State = registryState();
    std::lock_guard<std::mutex> Lock(State.Mutex);
    for (const TlsEntry &Entry : Entries)
      if (State.LiveDomains.count(Entry.DomainId))
        Entry.Detach(Entry.Domain, Entry.Record);
  }
};

inline TlsRegistry &tlsRegistry() {
  thread_local TlsRegistry Registry;
  return Registry;
}

} // namespace detail

/// Registers a newborn domain; returns its unique id.
inline uint64_t registerDomain() {
  detail::RegistryState &State = detail::registryState();
  std::lock_guard<std::mutex> Lock(State.Mutex);
  const uint64_t Id = State.NextDomainId++;
  State.LiveDomains.insert(Id);
  return Id;
}

/// Marks a domain dead. After this returns, no exiting thread will call
/// back into it.
inline void unregisterDomain(uint64_t Id) {
  detail::RegistryState &State = detail::registryState();
  std::lock_guard<std::mutex> Lock(State.Mutex);
  State.LiveDomains.erase(Id);
}

/// Looks up this thread's record for \p DomainId, or null if the thread
/// has never attached to that domain.
inline void *findThreadRecord(uint64_t DomainId) {
  for (const detail::TlsEntry &Entry : detail::tlsRegistry().Entries)
    if (Entry.DomainId == DomainId)
      return Entry.Record;
  return nullptr;
}

/// Remembers that this thread holds \p Record of \p Domain so the record
/// is returned when the thread exits. Also drops this thread's entries
/// for domains that have died since: findThreadRecord scans the list,
/// and a thread that outlives many short-lived domains would otherwise
/// pay for every one it ever attached to.
inline void rememberThreadRecord(uint64_t DomainId, void *Domain,
                                 void *Record, DetachFn Detach) {
  auto &Entries = detail::tlsRegistry().Entries;
  {
    detail::RegistryState &State = detail::registryState();
    std::lock_guard<std::mutex> Lock(State.Mutex);
    std::erase_if(Entries, [&](const detail::TlsEntry &Entry) {
      return State.LiveDomains.count(Entry.DomainId) == 0;
    });
  }
  Entries.push_back({DomainId, Domain, Record, Detach});
}

namespace detail {

/// This thread's (domain, record) pairs, 16 per record type (hence per
/// domain type), direct-mapped by domain id. A ShardedSet's shard
/// domains are constructed together and get consecutive ids, so a
/// thread moving between up to 16 of them stays on the inline hit; ids
/// that collide modulo 16 evict each other and refill from the
/// registry. Domain ids start at 1 and are never reused, so an empty
/// entry, or one naming a dead domain, never matches.
template <class RecordT> struct AttachCache {
  static constexpr unsigned Entries = 16;
  struct Entry {
    uint64_t DomainId = 0;
    RecordT *Record = nullptr;
  };
  static inline constinit thread_local Entry Table[Entries] = {};

  static Entry &slot(uint64_t DomainId) {
    return Table[DomainId % Entries];
  }
};

/// attachThreadRecord's miss path: the registry lookup, else a slot
/// claim (raising \p HighWater, when the domain keeps one, so scans see
/// the slot), then a cache refill.
template <class RecordT>
VBL_NOINLINE RecordT *attachThreadRecordSlow(uint64_t DomainId,
                                             void *Domain, DetachFn Detach,
                                             std::vector<RecordT> &Records,
                                             std::atomic<uint32_t> *HighWater) {
  auto *Record = static_cast<RecordT *>(findThreadRecord(DomainId));
  for (uint32_t I = 0; !Record && I != Records.size(); ++I) {
    bool Expected = false;
    if (!Records[I].InUse.compare_exchange_strong(Expected, true,
                                                  std::memory_order_acq_rel))
      continue;
    if (HighWater) {
      uint32_t HW = HighWater->load(std::memory_order_relaxed);
      while (HW < I + 1 && !HighWater->compare_exchange_weak(
                               HW, I + 1, std::memory_order_acq_rel)) {
      }
    }
    Record = &Records[I];
    rememberThreadRecord(DomainId, Domain, Record, Detach);
  }
  if (!Record)
    vbl_unreachable("reclamation domain: more than MaxThreads concurrent "
                    "threads");
  AttachCache<RecordT>::slot(DomainId) = {DomainId, Record};
  return Record;
}

} // namespace detail

/// This thread's record in the domain \p DomainId (\p Domain itself),
/// claiming a free one of \p Records (each with an atomic<bool> InUse
/// flag) on the thread's first attach; \p Detach hands it back at
/// thread exit. The cache hit is inline; everything else is out of line.
template <class RecordT>
VBL_ALWAYS_INLINE RecordT *
attachThreadRecord(uint64_t DomainId, void *Domain, DetachFn Detach,
                   std::vector<RecordT> &Records,
                   std::atomic<uint32_t> *HighWater) {
  const auto &Entry = detail::AttachCache<RecordT>::slot(DomainId);
  if (VBL_LIKELY(Entry.DomainId == DomainId))
    return Entry.Record;
  return detail::attachThreadRecordSlow(DomainId, Domain, Detach, Records,
                                        HighWater);
}

/// A word alone on its cache line. The guard fast paths read their
/// domain's epoch or clock on every operation; anything written beside
/// it would invalidate every reader's copy of the line on each write.
template <class T> struct alignas(CacheLineBytes) LineOwned {
  std::atomic<T> Word;
};
static_assert(sizeof(LineOwned<uint64_t>) == CacheLineBytes &&
                  alignof(LineOwned<uint64_t>) == CacheLineBytes,
              "a line-owned word must fill its line");

/// Adds \p Delta to a count cell of the calling thread's own record: a
/// plain load and store, not a lock-prefixed RMW, race-free because only
/// the record's owner writes it (the stats layer's Shard pattern). A
/// recycled record keeps its cells, and the claim's acquire of InUse
/// orders the previous owner's last store before the next owner's first.
inline void addOwnedCount(std::atomic<uint64_t> &Cell, uint64_t Delta = 1) {
  Cell.store(Cell.load(std::memory_order_relaxed) + Delta,
             std::memory_order_relaxed);
}

/// Sum of the count cell \p Cell over every record of a domain, claimed
/// or not (an unclaimed record has counted nothing, or keeps what its
/// last owner counted). Cells are read one at a time: exact once the
/// counting threads are quiescent or joined.
template <class RecordT>
uint64_t sumRecordCounts(const std::vector<RecordT> &Records,
                         std::atomic<uint64_t> RecordT::*Cell) {
  uint64_t Sum = 0;
  for (const RecordT &Record : Records)
    Sum += (Record.*Cell).load(std::memory_order_relaxed);
  return Sum;
}

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_DOMAINREGISTRY_H
