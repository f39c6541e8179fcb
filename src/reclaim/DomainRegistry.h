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
/// an inline one-entry cache hit (a load and a compare), and an
/// out-of-line slow path that looks the thread's record up in the
/// registry or claims a free slot for it.
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

/// This thread's most recent (domain, record) pair, one per record type
/// (hence per domain type): nearly every workload touches one domain of
/// a type at a time. Domain ids start at 1, so the empty cache never
/// matches.
template <class RecordT> struct AttachCache {
  static inline thread_local uint64_t DomainId = 0;
  static inline thread_local RecordT *Record = nullptr;
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
  AttachCache<RecordT>::DomainId = DomainId;
  AttachCache<RecordT>::Record = Record;
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
  using Cache = detail::AttachCache<RecordT>;
  if (VBL_LIKELY(Cache::DomainId == DomainId))
    return Cache::Record;
  return detail::attachThreadRecordSlow(DomainId, Domain, Detach, Records,
                                        HighWater);
}

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_DOMAINREGISTRY_H
