//===- lists/Registry.cpp - Name -> algorithm factory table --------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "lists/SetInterface.h"

#include "core/VblChunkList.h"
#include "core/VblList.h"
#include "lists/CoarseList.h"
#include "lists/HandOverHandList.h"
#include "lists/HarrisMichaelList.h"
#include "lists/LazyList.h"
#include "lists/LazySkipList.h"
#include "lists/OptimisticList.h"
#include "maps/SplitOrderedHashSet.h"
#include "reclaim/HazardPointerDomain.h"
#include "reclaim/LeakyDomain.h"
#include "reclaim/VbrDomain.h"

#include <algorithm>
#include <utility>

using namespace vbl;

ConcurrentSet::~ConcurrentSet() = default;

namespace {

struct RegistryEntry {
  const char *Name;
  std::unique_ptr<ConcurrentSet> (*Factory)(const std::string &Name);
  /// One-line human description: substrate, reclaim domain, chunk K,
  /// lock flavour. Dumped by tools/list_backends.py and echoed in
  /// ShardedSet backend-resolution errors.
  const char *Describe;
  /// Whether the structure accepts every isUserKey value. The
  /// split-ordered hash sets accept only isHashKey values ([0, 2^62)),
  /// so they are resolvable by makeSet() but excluded from
  /// registeredSetNames() — the generic list tests feed negative and
  /// extreme keys. They are enumerated by registeredHashSetNames().
  bool FullKeyDomain = true;
};

} // namespace

template <class ListT>
static std::unique_ptr<ConcurrentSet> makeAdapter(const std::string &Name) {
  return std::make_unique<SetAdapter<ListT>>(Name);
}

// Variant aliases. The default reclamation is epoch-based; "-leaky"
// variants reproduce the paper's C++-without-memory-management setup.
using VblDefault = VblList<>;
using VblLeaky = VblList<reclaim::LeakyDomain>;
using VblHeadRestart =
    VblList<reclaim::EpochDomain, DirectPolicy, TasLock,
            /*RestartFromPrev=*/false, /*ValueAware=*/true>;
using VblNodeAware =
    VblList<reclaim::EpochDomain, DirectPolicy, TasLock,
            /*RestartFromPrev=*/true, /*ValueAware=*/false>;
using VblTtas = VblList<reclaim::EpochDomain, DirectPolicy, TtasLock>;
using LazyDefault = LazyList<>;
using LazyLeaky = LazyList<reclaim::LeakyDomain>;
using HarrisMichaelDefault = HarrisMichaelList<>;
using HarrisMichaelLeaky = HarrisMichaelList<reclaim::LeakyDomain>;
using HarrisMichaelHp = HarrisMichaelList<reclaim::HazardPointerDomain>;
using OptimisticDefault = OptimisticList<>;
using HandOverHandDefault = HandOverHandList<>;
// Unrolled chunked VBL (core/VblChunkList.h). K=7 fills one 64-byte key
// line; K=1 is the unrolling ablation (flat-like layout, chunk
// protocol); K=15 fills two key lines per chunk.
using VblChunkDefault = VblChunkList<7>;
using VblChunkK1 = VblChunkList<1>;
using VblChunkK15 = VblChunkList<15>;
using VblChunkLeaky = VblChunkList<7, reclaim::LeakyDomain>;
// Version-based reclamation variants: immediate type-stable block reuse
// with birth-epoch validation folded into the optimistic read protocol.
using VblVbr = VblList<reclaim::VbrDomain>;
using LazyVbr = LazyList<reclaim::VbrDomain>;
using VblChunkVbr = VblChunkList<7, reclaim::VbrDomain>;
// Split-ordered hash overlays (src/maps) over the paper's substrates.
// The bucket index follows the population both ways (grow at load
// factor 4, halve once the held count falls under a quarter of the grow
// trigger); displaced indexes retire through the substrate's own
// domain. Their names keep the "-resize" suffix because benchmarks
// resolve them by name.
using SoHashHm = maps::SplitOrderedHashSet<HarrisMichaelDefault>;
using SoHashVbl = maps::SplitOrderedHashSet<VblDefault>;
using SoHashVblVbr = maps::SplitOrderedHashSet<VblVbr>;
using SoHashHmHp = maps::SplitOrderedHashSet<HarrisMichaelHp>;

static const RegistryEntry Registry[] = {
    {"vbl", &makeAdapter<VblDefault>,
     "paper's VBL list; substrate=flat domain=ebr lock=tas"},
    {"lazy", &makeAdapter<LazyDefault>,
     "lazy list (Heller et al.); substrate=flat domain=ebr lock=tas"},
    {"harris-michael", &makeAdapter<HarrisMichaelDefault>,
     "Harris-Michael CAS list; substrate=flat domain=ebr lock=none"},
    {"optimistic", &makeAdapter<OptimisticDefault>,
     "optimistic re-traversal validation; substrate=flat domain=ebr "
     "lock=tas"},
    {"hand-over-hand", &makeAdapter<HandOverHandDefault>,
     "hand-over-hand (fine-grained) locking; substrate=flat domain=ebr "
     "lock=tas"},
    {"coarse", &makeAdapter<CoarseList>,
     "single global lock baseline; substrate=flat domain=none lock=tas"},
    {"vbl-leaky", &makeAdapter<VblLeaky>,
     "VBL, no reclamation (paper setup); substrate=flat domain=leaky "
     "lock=tas"},
    {"lazy-leaky", &makeAdapter<LazyLeaky>,
     "lazy list, no reclamation; substrate=flat domain=leaky lock=tas"},
    {"harris-michael-leaky", &makeAdapter<HarrisMichaelLeaky>,
     "Harris-Michael, no reclamation; substrate=flat domain=leaky "
     "lock=none"},
    {"vbl-head-restart", &makeAdapter<VblHeadRestart>,
     "VBL restarting from head (ablation); substrate=flat domain=ebr "
     "lock=tas"},
    {"vbl-node-aware", &makeAdapter<VblNodeAware>,
     "VBL with node- not value-aware validation (ablation); "
     "substrate=flat domain=ebr lock=tas"},
    {"vbl-ttas", &makeAdapter<VblTtas>,
     "VBL over test-and-test-and-set locks; substrate=flat domain=ebr "
     "lock=ttas"},
    {"harris-michael-hp", &makeAdapter<HarrisMichaelHp>,
     "Harris-Michael over hazard pointers; substrate=flat domain=hp "
     "lock=none"},
    {"vbl-chunk", &makeAdapter<VblChunkDefault>,
     "unrolled chunked VBL; substrate=chunk K=7 domain=ebr "
     "lock=chunk-seqlock"},
    {"vbl-chunk-k1", &makeAdapter<VblChunkK1>,
     "chunked VBL, K=1 unrolling ablation; substrate=chunk K=1 "
     "domain=ebr lock=chunk-seqlock"},
    {"vbl-chunk-k15", &makeAdapter<VblChunkK15>,
     "chunked VBL, two key lines per chunk; substrate=chunk K=15 "
     "domain=ebr lock=chunk-seqlock"},
    {"vbl-chunk-leaky", &makeAdapter<VblChunkLeaky>,
     "chunked VBL, no reclamation; substrate=chunk K=7 domain=leaky "
     "lock=chunk-seqlock"},
    {"skiplist-lazy", &makeAdapter<LazySkipList<>>,
     "lazy skip list; substrate=skiplist domain=ebr lock=tas"},
    {"vbl-vbr", &makeAdapter<VblVbr>,
     "VBL over version-based reclamation; substrate=flat domain=vbr "
     "lock=tas"},
    {"lazy-vbr", &makeAdapter<LazyVbr>,
     "lazy list over version-based reclamation; substrate=flat "
     "domain=vbr lock=tas"},
    {"vbl-chunk-vbr", &makeAdapter<VblChunkVbr>,
     "chunked VBL over version-based reclamation; substrate=chunk K=7 "
     "domain=vbr lock=chunk-seqlock"},
    {"so-hash-hm-resize", &makeAdapter<SoHashHm>,
     "split-ordered hash over Harris-Michael, grow+shrink index; "
     "substrate=hash/flat domain=ebr lock=none keys=[0,2^62)",
     /*FullKeyDomain=*/false},
    {"so-hash-vbl-resize", &makeAdapter<SoHashVbl>,
     "split-ordered hash over VBL, grow+shrink index; substrate=hash/flat "
     "domain=ebr lock=tas keys=[0,2^62)", /*FullKeyDomain=*/false},
    {"so-hash-vbl-vbr-resize", &makeAdapter<SoHashVblVbr>,
     "split-ordered hash over VBL+VBR, grow+shrink index; "
     "substrate=hash/flat domain=vbr lock=tas keys=[0,2^62)",
     /*FullKeyDomain=*/false},
    {"so-hash-hm-hp-resize", &makeAdapter<SoHashHmHp>,
     "split-ordered hash over Harris-Michael+HP, grow+shrink index; "
     "substrate=hash/flat domain=hp lock=none keys=[0,2^62)",
     /*FullKeyDomain=*/false},
};

std::unique_ptr<ConcurrentSet> vbl::makeSet(const std::string &Name) {
  for (const RegistryEntry &Entry : Registry)
    if (Name == Entry.Name)
      return Entry.Factory(Name);
  return nullptr;
}

std::vector<std::string> vbl::registeredSetNames() {
  std::vector<std::string> Names;
  for (const RegistryEntry &Entry : Registry)
    if (Entry.FullKeyDomain)
      Names.push_back(Entry.Name);
  return Names;
}

std::vector<std::string> vbl::registeredHashSetNames() {
  std::vector<std::string> Names;
  for (const RegistryEntry &Entry : Registry)
    if (!Entry.FullKeyDomain)
      Names.push_back(Entry.Name);
  return Names;
}

std::vector<std::string> vbl::paperComparisonSetNames() {
  return {"vbl", "lazy", "harris-michael"};
}

std::vector<SetDescription> vbl::registeredSetDescriptions() {
  std::vector<SetDescription> Rows;
  for (const RegistryEntry &Entry : Registry)
    Rows.push_back({Entry.Name, Entry.Describe, Entry.FullKeyDomain});
  return Rows;
}

std::string vbl::setDescription(const std::string &Name) {
  for (const RegistryEntry &Entry : Registry)
    if (Name == Entry.Name)
      return Entry.Describe;
  return {};
}

/// Plain Levenshtein distance, O(|A|*|B|) with two rows — names are a
/// couple dozen characters, so no banding needed.
static size_t editDistance(const std::string &A, const std::string &B) {
  std::vector<size_t> Prev(B.size() + 1), Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Prev[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      const size_t Sub = Prev[J - 1] + (A[I - 1] == B[J - 1] ? 0 : 1);
      Row[J] = std::min({Prev[J] + 1, Row[J - 1] + 1, Sub});
    }
    std::swap(Prev, Row);
  }
  return Prev[B.size()];
}

std::vector<std::string> vbl::suggestSetNames(const std::string &Name,
                                              size_t MaxSuggestions) {
  // Substring hits rank before edit-distance hits: "chunk" should
  // suggest every vbl-chunk-* before anything 3 edits away.
  std::vector<std::pair<size_t, std::string>> Scored;
  for (const RegistryEntry &Entry : Registry) {
    const std::string Registered = Entry.Name;
    const size_t Distance = editDistance(Name, Registered);
    if (!Name.empty() && Registered.find(Name) != std::string::npos)
      Scored.emplace_back(0, Registered);
    else if (Distance <= 3)
      Scored.emplace_back(Distance, Registered);
  }
  std::stable_sort(Scored.begin(), Scored.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  std::vector<std::string> Suggestions;
  for (const auto &[Distance, Registered] : Scored) {
    if (Suggestions.size() == MaxSuggestions)
      break;
    Suggestions.push_back(Registered);
  }
  return Suggestions;
}
