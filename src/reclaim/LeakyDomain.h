//===- reclaim/LeakyDomain.h - No-op reclamation --------------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "no memory management" domain: nothing retired is freed while the
/// domain lives. This reproduces the paper's own C++ translations, which
/// the technical report evaluates *without* memory management, and
/// serves as the zero-overhead baseline in the reclamation benchmark.
/// Unlinked nodes stay allocated until the structure is destroyed, which
/// also makes wait-free traversals trivially safe.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_LEAKYDOMAIN_H
#define VBL_RECLAIM_LEAKYDOMAIN_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vbl {
namespace reclaim {

/// Satisfies the same Reclaimer shape as EpochDomain but never frees
/// during its lifetime: retire() only logs the retiree, and the
/// destructor runs every logged deleter, as EpochDomain's destructor
/// does for its pending list. Freeing a retiree never follows its
/// pointers, so no tracing is needed even though a retired node may
/// still point at another one. The log also lets tests check a list's
/// unlink discipline: sawDoubleRetire() reports a node retired twice.
class LeakyDomain {
public:
  class Guard {
  public:
    explicit Guard(LeakyDomain &) {}
    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;
  };

  LeakyDomain() = default;
  LeakyDomain(const LeakyDomain &) = delete;
  LeakyDomain &operator=(const LeakyDomain &) = delete;

  ~LeakyDomain() {
    Block *B = Newest.load(std::memory_order_acquire);
    while (B) {
      for (size_t I = 0, E = logged(B); I != E; ++I)
        B->Entries[I].Deleter(B->Entries[I].Ptr);
      Block *Older = B->Older;
      delete B;
      B = Older;
    }
  }

  template <class T> void retire(T *Ptr) {
    retireRaw(Ptr, [](void *P) { delete static_cast<T *>(P); });
  }

  /// Logs \p Ptr for the destructor. Lock-free, as befits the
  /// no-reclamation baseline: one fetch_add on the newest block's
  /// cursor, plus a block allocation every Block::Capacity retirees.
  void retireRaw(void *Ptr, void (*Deleter)(void *)) {
    Block *B = Newest.load(std::memory_order_acquire);
    for (;;) {
      if (B) {
        const size_t I = B->Used.fetch_add(1, std::memory_order_relaxed);
        if (I < Block::Capacity) {
          B->Entries[I] = {Ptr, Deleter};
          return;
        }
      }
      // B is full (or there is none yet): push a fresh block that
      // already holds this retiree. A lost race adopts the winner's.
      Block *Fresh = new Block;
      Fresh->Older = B;
      Fresh->Used.store(1, std::memory_order_relaxed);
      Fresh->Entries[0] = {Ptr, Deleter};
      if (Newest.compare_exchange_strong(B, Fresh,
                                         std::memory_order_acq_rel))
        return;
      delete Fresh;
    }
  }

  void collectAll() {}

  uint64_t retiredCount() const {
    uint64_t Count = 0;
    for (const Block *B = Newest.load(std::memory_order_acquire); B;
         B = B->Older)
      Count += logged(B);
    return Count;
  }
  uint64_t freedCount() const { return 0; }

  /// True if some pointer was logged twice: the structure under test
  /// retired one node twice. Scans the whole log, so call it only while
  /// no thread retires.
  bool sawDoubleRetire() const {
    std::vector<const void *> Ptrs;
    for (const Block *B = Newest.load(std::memory_order_acquire); B;
         B = B->Older)
      for (size_t I = 0, E = logged(B); I != E; ++I)
        Ptrs.push_back(B->Entries[I].Ptr);
    std::sort(Ptrs.begin(), Ptrs.end());
    return std::adjacent_find(Ptrs.begin(), Ptrs.end()) != Ptrs.end();
  }

private:
  struct Retiree {
    void *Ptr;
    void (*Deleter)(void *);
  };

  /// One 4 KiB page of the retire log.
  struct Block {
    static constexpr size_t Capacity =
        (4096 - sizeof(std::atomic<size_t>) - sizeof(Block *)) /
        sizeof(Retiree);
    /// Slots claimed so far; runs past Capacity while a full block is
    /// being replaced.
    std::atomic<size_t> Used{0};
    Block *Older = nullptr;
    Retiree Entries[Capacity];
  };

  static size_t logged(const Block *B) {
    return std::min(B->Used.load(std::memory_order_relaxed),
                    Block::Capacity);
  }

  std::atomic<Block *> Newest{nullptr};
};

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_LEAKYDOMAIN_H
