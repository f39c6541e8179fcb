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
/// The records themselves live in a RecordTable: up to
/// MaxAttachedThreads of them, allocated a block of 8 at a time as
/// threads attach.
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

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace vbl {
namespace reclaim {

/// Upper bound on the threads attached to one domain at once. Records
/// are claimed and recycled, so this bounds *simultaneous* threads, not
/// total; every domain's MaxThreads is this constant.
inline constexpr unsigned MaxAttachedThreads = 512;

/// A domain's per-thread records (each with an atomic<bool> InUse
/// flag), allocated in blocks of BlockRecords as threads attach. A
/// block is allocated by the first claim that reaches it and published
/// with a release CAS; claims take the lowest free record, so the
/// allocated blocks always form a prefix, and the high-water mark (one
/// past the highest record ever claimed) bounds every walk over the
/// records. Block loads and claims are private bookkeeping: no access
/// here goes through an access policy, so traced event streams do not
/// see them.
template <class RecordT> class RecordTable {
public:
  static constexpr unsigned BlockRecords = 8;
  static constexpr unsigned NumBlocks = MaxAttachedThreads / BlockRecords;
  static_assert(NumBlocks * BlockRecords == MaxAttachedThreads);

  RecordTable() = default;
  ~RecordTable() {
    for (std::atomic<Block *> &Slot : Blocks)
      delete Slot.load(std::memory_order_relaxed);
  }

  RecordTable(const RecordTable &) = delete;
  RecordTable &operator=(const RecordTable &) = delete;

  /// One past the highest record ever claimed. Acquire: a walk below it
  /// finds every block it crosses published.
  uint32_t highWater() const {
    return HighWater.load(std::memory_order_acquire);
  }

  /// Record \p I, which must lie below highWater().
  RecordT &operator[](uint32_t I) const {
    return Blocks[I / BlockRecords]
        .load(std::memory_order_acquire)
        ->Records[I % BlockRecords];
  }

  /// Claims the lowest free record, allocating blocks on the way, and
  /// raises the high-water mark past it; null when all
  /// MaxAttachedThreads records are held.
  RecordT *claim() {
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      Block &Blk = blockAt(B);
      for (uint32_t R = 0; R != BlockRecords; ++R) {
        bool Expected = false;
        if (!Blk.Records[R].InUse.compare_exchange_strong(
                Expected, true, std::memory_order_acq_rel))
          continue;
        const uint32_t Mark = B * BlockRecords + R + 1;
        uint32_t HW = HighWater.load(std::memory_order_relaxed);
        while (HW < Mark && !HighWater.compare_exchange_weak(
                                HW, Mark, std::memory_order_acq_rel)) {
        }
        return &Blk.Records[R];
      }
    }
    return nullptr;
  }

private:
  struct Block {
    RecordT Records[BlockRecords];
  };

  /// Block \p B, allocated and published first if no claim reached it
  /// yet. Of two claimers that race to publish it, the loser frees its
  /// copy and uses the winner's.
  Block &blockAt(uint32_t B) {
    Block *Blk = Blocks[B].load(std::memory_order_acquire);
    if (VBL_LIKELY(Blk))
      return *Blk;
    Block *Fresh = new Block;
    if (Blocks[B].compare_exchange_strong(Blk, Fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
      return *Fresh;
    delete Fresh;
    return *Blk;
  }

  std::array<std::atomic<Block *>, NumBlocks> Blocks{};
  std::atomic<uint32_t> HighWater{0};
};

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

/// attachThreadRecord's miss path: the registry lookup, else a claim
/// from \p Records, then a cache refill.
template <class RecordT>
VBL_NOINLINE RecordT *attachThreadRecordSlow(uint64_t DomainId,
                                             void *Domain, DetachFn Detach,
                                             RecordTable<RecordT> &Records) {
  auto *Record = static_cast<RecordT *>(findThreadRecord(DomainId));
  if (!Record) {
    Record = Records.claim();
    if (!Record)
      vbl_unreachable("reclamation domain: more than MaxThreads concurrent "
                      "threads");
    rememberThreadRecord(DomainId, Domain, Record, Detach);
  }
  AttachCache<RecordT>::slot(DomainId) = {DomainId, Record};
  return Record;
}

} // namespace detail

/// This thread's record in the domain \p DomainId (\p Domain itself),
/// claiming a free one of \p Records on the thread's first attach;
/// \p Detach hands it back at thread exit. The cache hit is inline;
/// everything else is out of line.
template <class RecordT>
VBL_ALWAYS_INLINE RecordT *
attachThreadRecord(uint64_t DomainId, void *Domain, DetachFn Detach,
                   RecordTable<RecordT> &Records) {
  const auto &Entry = detail::AttachCache<RecordT>::slot(DomainId);
  if (VBL_LIKELY(Entry.DomainId == DomainId))
    return Entry.Record;
  return detail::attachThreadRecordSlow(DomainId, Domain, Detach, Records);
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

/// Sum of the count cell \p Cell over every record of a domain ever
/// claimed, held now or not (a released record keeps what its last
/// owner counted; one never claimed has counted nothing). Cells are
/// read one at a time: exact once the counting threads are quiescent
/// or joined.
template <class RecordT>
uint64_t sumRecordCounts(const RecordTable<RecordT> &Records,
                         std::atomic<uint64_t> RecordT::*Cell) {
  uint64_t Sum = 0;
  for (uint32_t I = 0, HW = Records.highWater(); I != HW; ++I)
    Sum += (Records[I].*Cell).load(std::memory_order_relaxed);
  return Sum;
}

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_DOMAINREGISTRY_H
