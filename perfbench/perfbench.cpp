//===- perfbench/perfbench.cpp - The repository benchmark ----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload against the library's public API and prints
/// its metrics. Load is closed-loop from Workers threads; the benchmark
/// generates every op from --seed and the library only sees the
/// generated ops.
///
/// A run is Rounds rounds. Each round builds and prefills a fresh
/// structure (SetupReps times, keeping the last copy), warms every
/// worker up, then measures --seconds / Rounds in WindowSeconds
/// windows. Timings are read over the calm windows of all rounds, so one
/// unlucky heap layout or one noisy second moves them little. With
/// --trace 1 each round adds a traced window of the same length on the
/// same structure; spans are taken only there, around calls into the
/// service and core layers, and counters come from stats::snapshotAll()
/// deltas over those windows.
///
/// Every round checks its outputs. Service ops carry a sequence number
/// in BatchOp::Tag and each must come back from takeCompleted exactly
/// once. Every key must end where its initial presence plus the
/// successful inserts minus the successful removes put it. Failures are
/// counted against ops attempted, and checkInvariants() must hold.
///
/// See perfbench/README.md for the workloads and the metric map.
///
//===----------------------------------------------------------------------===//

#include "lists/SetInterface.h"
#include "service/ShardedSet.h"
#include "stats/Stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace vbl;
using service::CombineMode;
using service::ShardedSet;

namespace {

/// Closed-loop client threads; the host needs one more core for the
/// thread that keeps time.
constexpr unsigned Workers = 3;
constexpr unsigned Rounds = 5;
/// Throughput and latency are read per window; short windows let the
/// quantiles over them step around time the host takes from the run.
constexpr double WindowSeconds = 0.05;
/// Untimed load before the first window (a core fresh from idle reads
/// low for a while), and before the windows of every later round.
constexpr double FirstWarmupSeconds = 2.0;
constexpr double RoundWarmupSeconds = 0.5;
/// Latency samples kept per worker. The buffer is written once before
/// the run, so its pages count the same on every run and peak memory
/// does not grow with throughput.
constexpr size_t LatencyCap = size_t{1} << 19;
/// The traced window times the calls of every SpanStride-th op (by op
/// index) and counts the rest, which keeps its own overhead down.
constexpr uint64_t SpanStride = 16;
/// End-to-end timings are read over the calm windows: the quarter of
/// all windows with the highest throughput. Other tenants of a shared
/// host slow some windows of every run; the calm ones are the figure
/// they disturb least.
constexpr size_t CalmDivisor = 4;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t clampNs(uint64_t Ns) {
  return Ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Ns);
}

uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Workloads and their inputs
//===----------------------------------------------------------------------===//

struct WorkloadSpec {
  const char *Name;
  const char *Backend; ///< Registry name.
  bool Service;        ///< ShardedSet sessions, or makeSet called directly.
  unsigned Shards;
  unsigned Batch;
  CombineMode Combine;
  double Theta; ///< Zipf exponent; 0 is uniform.
  unsigned UpdatePercent;
  uint64_t KeyRange;
  uint64_t Sessions;  ///< Simulated clients, split across the workers.
  unsigned SetupReps; ///< Builds per round; setup_s is their median.
  /// Every LatencyStride-th op of each worker (by op index) is timed
  /// end to end, sized so the samples span the whole window.
  uint64_t LatencyStride;
};

// uniform-hash-1m holds about 500k keys. Its index grows past 4 keys per
// bucket, so a population of 2^19 (half of 2^20 keys) would sit on the
// 2^17 -> 2^18 bucket trigger and split runs between two table sizes.
// It runs over EBR: over VBR (so-hash-vbl-vbr-resize) 3 of about 45
// 20-second runs hung until killed, and the cause is not yet known.
const WorkloadSpec AllWorkloads[] = {
    {"zipf-combine-chunk", "vbl-chunk", true, 8, 16, CombineMode::On, 0.99,
     50, 16384, 4096, 5, 128},
    {"uniform-direct-vbl", "vbl", true, 8, 1, CombineMode::Off, 0.0, 20,
     16384, Workers, 5, 16},
    {"uniform-hash-1m", "so-hash-vbl-resize", true, 8, 1,
     CombineMode::Off, 0.0, 50, 1000000, Workers, 1, 64},
    {"paper-fig1", "vbl", false, 0, 0, CombineMode::Off, 0.0, 20, 50,
     Workers, 201, 512},
};

/// Bounded Zipf over ranks [0, N), Gray et al.'s inversion (the YCSB
/// generator). Rank r is key r, so the hot keys are the same on every
/// seed and only the op sequence varies.
class Zipf {
public:
  Zipf(uint64_t N, double Theta) : N(N) {
    for (uint64_t K = 1; K <= N; ++K)
      Zetan += std::pow(static_cast<double>(K), -Theta);
    HalfPowTheta = std::pow(0.5, Theta);
    Alpha = 1.0 / (1.0 - Theta);
    Eta = (1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
          (1.0 - (1.0 + HalfPowTheta) / Zetan);
  }

  uint64_t rank(uint64_t Bits) const {
    const double U = static_cast<double>(Bits >> 11) * 0x1.0p-53;
    const double Uz = U * Zetan;
    if (Uz < 1.0)
      return 0;
    if (Uz < 1.0 + HalfPowTheta)
      return 1;
    const auto R = static_cast<uint64_t>(
        static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
    return R >= N ? N - 1 : R;
  }

private:
  uint64_t N;
  double Zetan = 0.0;
  double HalfPowTheta = 0.0;
  double Alpha = 0.0;
  double Eta = 0.0;
};

/// One worker's op source: its slice of the simulated sessions, visited
/// round-robin, each session drawing from its own seeded stream.
class OpStream {
public:
  struct Item {
    SetOp Op;
    SetKey Key;
  };

  OpStream(const WorkloadSpec &W, uint64_t Seed, unsigned Worker)
      : Range(W.KeyRange), UpdatePercent(W.UpdatePercent) {
    if (W.Theta > 0.0)
      Skew = std::make_unique<Zipf>(W.KeyRange, W.Theta);
    const uint64_t First = W.Sessions * Worker / Workers;
    const uint64_t Last = W.Sessions * (Worker + 1) / Workers;
    for (uint64_t S = First; S != Last; ++S) {
      uint64_t Mix = Seed * 0x9e3779b97f4a7c15ULL + S;
      Sessions.push_back(splitMix(Mix));
    }
  }

  Item next() {
    uint64_t &State = Sessions[Cursor];
    if (++Cursor == Sessions.size())
      Cursor = 0;
    const uint64_t KeyBits = splitMix(State);
    const uint64_t Roll = splitMix(State);
    Item It;
    It.Key = static_cast<SetKey>(
        Skew ? Skew->rank(KeyBits)
             : static_cast<uint64_t>(
                   (static_cast<unsigned __int128>(KeyBits) * Range) >> 64));
    if (Roll % 100 < UpdatePercent)
      It.Op = (Roll >> 32) & 1 ? SetOp::Insert : SetOp::Remove;
    else
      It.Op = SetOp::Contains;
    return It;
  }

private:
  uint64_t Range;
  unsigned UpdatePercent;
  std::unique_ptr<Zipf> Skew;
  std::vector<uint64_t> Sessions;
  size_t Cursor = 0;
};

/// The initial key set: each key present with probability 1/2, inserted
/// in a seed-shuffled order so node layout is not key order.
struct InitialSet {
  std::vector<uint8_t> Present;
  std::vector<SetKey> Order;

  InitialSet(uint64_t Range, uint64_t Seed) : Present(Range, 0) {
    uint64_t State = Seed ^ 0x1f0e5eedULL;
    for (uint64_t K = 0; K != Range; ++K)
      if (splitMix(State) & 1) {
        Present[K] = 1;
        Order.push_back(static_cast<SetKey>(K));
      }
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[splitMix(State) % I]);
  }
};

//===----------------------------------------------------------------------===//
// The set under test
//===----------------------------------------------------------------------===//

/// Forwards to a real set but silently undoes every Every-th successful
/// insert: the correctness accounting must catch it (--lossy-every).
class LossySet final : public ConcurrentSet {
public:
  LossySet(std::unique_ptr<ConcurrentSet> Inner, uint64_t Every)
      : Inner(std::move(Inner)), Every(Every) {}

  bool insert(SetKey Key) override {
    const bool Inserted = Inner->insert(Key);
    if (Inserted &&
        Inserts.fetch_add(1, std::memory_order_relaxed) % Every == Every - 1)
      Inner->remove(Key);
    return Inserted;
  }
  bool remove(SetKey Key) override { return Inner->remove(Key); }
  bool contains(SetKey Key) override { return Inner->contains(Key); }
  size_t rangeQuery(SetKey Lo, SetKey Hi,
                    std::vector<SetKey> &Out) override {
    return Inner->rangeQuery(Lo, Hi, Out);
  }
  std::vector<SetKey> snapshot() const override { return Inner->snapshot(); }
  bool checkInvariants() const override { return Inner->checkInvariants(); }
  const std::string &name() const override { return Inner->name(); }

private:
  std::unique_ptr<ConcurrentSet> Inner;
  uint64_t Every;
  std::atomic<uint64_t> Inserts{0};
};

struct Target {
  std::unique_ptr<ShardedSet> Front;  ///< Service workloads.
  std::unique_ptr<ConcurrentSet> Set; ///< Library workloads.

  ConcurrentSet &set() { return Front ? *Front : *Set; }
};

bool buildTarget(const WorkloadSpec &W, Target &T, std::string &Error) {
  if (W.Service) {
    ShardedSet::Options Opts;
    Opts.Backend = W.Backend;
    Opts.Shards = W.Shards;
    Opts.BatchSize = W.Batch;
    Opts.Combine = W.Combine;
    T.Front = ShardedSet::create(Opts, &Error);
    return T.Front != nullptr;
  }
  T.Set = makeSet(W.Backend);
  if (!T.Set)
    Error = std::string("unknown backend '") + W.Backend + "'";
  return T.Set != nullptr;
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

enum Phase : int { Warm, Measure, Traced, Stop };

/// Ops in flight in one session, keyed by sequence number: each must
/// come back exactly once. An op still out after 4096 later ops (the
/// session holds at most Shards * (Batch - 1)) counts as lost.
class InFlight {
public:
  InFlight() : Slots(4096) {}

  void add(uint64_t Seq, uint64_t StartNs) {
    Entry &E = Slots[Seq & (Slots.size() - 1)];
    if (E.Seq)
      ++Failures;
    E = {Seq, StartNs};
  }

  /// False for an op returned twice or never issued.
  bool take(uint64_t Seq, uint64_t &StartNs) {
    Entry &E = Slots[Seq & (Slots.size() - 1)];
    if (Seq == 0 || E.Seq != Seq) {
      ++Failures;
      return false;
    }
    StartNs = E.StartNs;
    E.Seq = 0;
    return true;
  }

  /// Failures so far, counting ops still out as never returned, and
  /// empties the ring for the next round.
  uint64_t close() {
    for (Entry &E : Slots) {
      Failures += E.Seq != 0;
      E.Seq = 0;
    }
    const uint64_t N = Failures;
    Failures = 0;
    return N;
  }

private:
  struct Entry {
    uint64_t Seq = 0;
    uint64_t StartNs = 0;
  };
  std::vector<Entry> Slots;
  uint64_t Failures = 0;
};

/// One span kind: every call counted, the timed ones' durations kept.
struct SpanSamples {
  std::vector<uint32_t> Kept;
  uint64_t Calls = 0;
  uint64_t KeptNs = 0;

  void count() { ++Calls; }
  void add(uint64_t Ns) {
    ++Calls;
    KeptNs += Ns;
    Kept.push_back(clampNs(Ns));
  }
  /// Time spent in all calls, estimated from the timed sample.
  double totalNs() const {
    return Kept.empty() ? 0.0
                        : static_cast<double>(KeptNs) /
                              static_cast<double>(Kept.size()) *
                              static_cast<double>(Calls);
  }
};

struct TraceLog {
  SpanSamples Enqueue;  ///< Session::enqueue calls that did not flush.
  SpanSamples Visit;    ///< Session::enqueue calls that flushed a queue.
  SpanSamples Take;     ///< Session::takeCompleted calls.
  SpanSamples Contains; ///< ConcurrentSet::contains calls.
  SpanSamples Update;   ///< ConcurrentSet::insert/remove calls.
  std::vector<uint32_t> DwellNs; ///< Sampled op: enqueue to its flush.
};

struct alignas(64) WorkerState {
  /// Ops completed this round; only this worker writes, the timekeeper
  /// reads.
  std::atomic<uint64_t> Completed{0};
  alignas(64) uint64_t Issued = 0; ///< Op index, continued across rounds.
  uint64_t BadKeys = 0;
  uint64_t LatencyStride;
  std::vector<int32_t> NetDelta; ///< Successful inserts - removes, per key.
  std::vector<uint32_t> LatencyNs;
  std::vector<uint16_t> LatencyWindow; ///< Window each sample fell in.
  size_t LatencyCount = 0;
  /// The window the timekeeper is in, published once per window.
  const std::atomic<unsigned> *Window = nullptr;
  InFlight Ring;
  TraceLog Trace;

  WorkerState(uint64_t Range, uint64_t LatencyStride)
      : LatencyStride(LatencyStride), NetDelta(Range, 0),
        LatencyNs(LatencyCap, 0), LatencyWindow(LatencyCap, 0) {}

  void beginRound(const std::atomic<unsigned> &CurrentWindow) {
    Window = &CurrentWindow;
    Completed.store(0, std::memory_order_relaxed);
    std::fill(NetDelta.begin(), NetDelta.end(), 0);
  }

  void countCompleted(uint64_t N) {
    Completed.store(Completed.load(std::memory_order_relaxed) + N,
                    std::memory_order_relaxed);
  }

  void addLatency(uint64_t Ns) {
    if (LatencyCount == LatencyNs.size())
      return;
    LatencyWindow[LatencyCount] = static_cast<uint16_t>(
        Window->load(std::memory_order_relaxed));
    LatencyNs[LatencyCount++] = clampNs(Ns);
  }

  void applyResult(SetOp Op, SetKey Key, bool Result) {
    if (Key < 0 || static_cast<uint64_t>(Key) >= NetDelta.size()) {
      ++BadKeys;
      return;
    }
    if (Result && Op == SetOp::Insert)
      ++NetDelta[static_cast<size_t>(Key)];
    else if (Result && Op == SetOp::Remove)
      --NetDelta[static_cast<size_t>(Key)];
  }
};

/// Books the ops a takeCompleted call handed back. \p FlushStartNs is
/// when the enqueue call that flushed them began (traced window only).
void settle(const std::vector<BatchOp> &Done, WorkerState &St, int P,
            uint64_t FlushStartNs) {
  if (Done.empty())
    return;
  uint64_t NowNs = 0;
  for (const BatchOp &O : Done) {
    uint64_t StartNs = 0;
    if (!St.Ring.take(O.Tag, StartNs))
      continue;
    St.applyResult(O.Op, O.Key, O.Result);
    if (!StartNs)
      continue;
    if (P == Measure) {
      if (!NowNs)
        NowNs = nowNs();
      St.addLatency(NowNs - StartNs);
    } else if (P == Traced && FlushStartNs) {
      St.Trace.DwellNs.push_back(
          clampNs(FlushStartNs > StartNs ? FlushStartNs - StartNs : 0));
    }
  }
  St.countCompleted(Done.size());
}

template <bool IsTraced>
void serviceStep(ShardedSet::Session &S, OpStream &Gen, WorkerState &St,
                 int P) {
  const OpStream::Item It = Gen.next();
  const uint64_t Seq = ++St.Issued;
  const bool Sampled = P != Warm && Seq % St.LatencyStride == 0;
  St.Ring.add(Seq, Sampled ? nowNs() : 0);
  if constexpr (IsTraced) {
    // The call start is read on every op: any call may flush a sampled
    // op, and its queue dwell ends where that flush begins.
    const bool Timed = Seq % SpanStride == 0;
    const size_t Before = S.pendingOps();
    const uint64_t CallNs = nowNs();
    S.enqueue(It.Op, It.Key, Seq);
    const uint64_t EnqueuedNs = Timed ? nowNs() : 0;
    SpanSamples &Kind =
        S.pendingOps() > Before ? St.Trace.Enqueue : St.Trace.Visit;
    Timed ? Kind.add(EnqueuedNs - CallNs) : Kind.count();
    const std::vector<BatchOp> Done = S.takeCompleted();
    Timed ? St.Trace.Take.add(nowNs() - EnqueuedNs) : St.Trace.Take.count();
    settle(Done, St, P, CallNs);
  } else {
    S.enqueue(It.Op, It.Key, Seq);
    settle(S.takeCompleted(), St, P, 0);
  }
}

template <bool IsTraced>
void libraryStep(ConcurrentSet &Set, OpStream &Gen, WorkerState &St,
                 int P) {
  const OpStream::Item It = Gen.next();
  const uint64_t Seq = ++St.Issued;
  const bool Sampled = P == Measure && Seq % St.LatencyStride == 0;
  const bool Timed = IsTraced && Seq % SpanStride == 0;
  const uint64_t StartNs = (Timed || Sampled) ? nowNs() : 0;
  bool Result = false;
  switch (It.Op) {
  case SetOp::Insert:
    Result = Set.insert(It.Key);
    break;
  case SetOp::Remove:
    Result = Set.remove(It.Key);
    break;
  default:
    Result = Set.contains(It.Key);
    break;
  }
  if (Timed || Sampled) {
    const uint64_t Ns = nowNs() - StartNs;
    if (Sampled)
      St.addLatency(Ns);
    if (Timed)
      (It.Op == SetOp::Contains ? St.Trace.Contains : St.Trace.Update)
          .add(Ns);
  }
  St.applyResult(It.Op, It.Key, Result);
  St.countCompleted(1);
}

void workerMain(const WorkloadSpec &W, uint64_t Seed, unsigned Id,
                Target &T, WorkerState &St, const std::atomic<int> &Ph) {
  OpStream Gen(W, Seed, Id);
  int P;
  if (!W.Service) {
    ConcurrentSet &Set = T.set();
    while ((P = Ph.load(std::memory_order_relaxed)) < Traced)
      libraryStep<false>(Set, Gen, St, P);
    while ((P = Ph.load(std::memory_order_relaxed)) == Traced)
      libraryStep<true>(Set, Gen, St, P);
    return;
  }
  ShardedSet::Session S = T.Front->openSession();
  while ((P = Ph.load(std::memory_order_relaxed)) < Traced)
    serviceStep<false>(S, Gen, St, P);
  while ((P = Ph.load(std::memory_order_relaxed)) == Traced)
    serviceStep<true>(S, Gen, St, P);
  // Ops still queued below the batch size come back on the final flush.
  S.flush();
  settle(S.takeCompleted(), St, Stop, 0);
  S.close();
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// Quantile \p Q in [0, 1] of \p V, interpolating between order
/// statistics.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const auto Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Percentile \p Q of ascending \p Sorted, smoothed: the mean of the
/// order statistics within \p HalfBand percentile points of \p Q, so a
/// tight distribution still reads with all its digits.
double bandPercentile(const std::vector<uint32_t> &Sorted, double Q,
                      double HalfBand) {
  if (Sorted.empty())
    return 0.0;
  const double Last = static_cast<double>(Sorted.size() - 1);
  const auto Lo = static_cast<size_t>(
      std::floor(std::max(0.0, Q - HalfBand) / 100 * Last));
  const auto Hi = static_cast<size_t>(
      std::ceil(std::min(100.0, Q + HalfBand) / 100 * Last));
  double Sum = 0.0;
  for (size_t I = Lo; I <= Hi; ++I)
    Sum += Sorted[I];
  return Sum / static_cast<double>(Hi - Lo + 1);
}

double p50(const std::vector<uint32_t> &Sorted) {
  return bandPercentile(Sorted, 50, 2.5);
}
double p99(const std::vector<uint32_t> &Sorted) {
  return bandPercentile(Sorted, 99, 0.25);
}

std::vector<uint32_t>
sortedKept(const std::vector<std::unique_ptr<WorkerState>> &States,
           const SpanSamples TraceLog::*Kind) {
  std::vector<uint32_t> All;
  for (const auto &St : States) {
    const std::vector<uint32_t> &V = (St->Trace.*Kind).Kept;
    All.insert(All.end(), V.begin(), V.end());
  }
  std::sort(All.begin(), All.end());
  return All;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " +
           jsonNumber(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  return Out + "}";
}

unsigned availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::thread::hardware_concurrency();
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned Regs[12] = {};
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string Model(Brand);
    const size_t First = Model.find_first_not_of(' ');
    const size_t Last = Model.find_last_not_of(' ');
    if (First != std::string::npos)
      return Model.substr(First, Last - First + 1);
  }
#endif
  return "unknown";
}

double peakRssMb() {
  rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  uint64_t LossyEvery = 0;
  std::string GitSha = "unknown";
  std::string SourceDigest = "unknown";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 == Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Flag.c_str());
      return false;
    }
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--lossy-every")
      A.LossyEvery = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--git-sha")
      A.GitSha = Value;
    else if (Flag == "--source-digest")
      A.SourceDigest = Value;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Flag.c_str());
      return false;
    }
  }
  if (!(A.Seconds > 0.0) || A.Seconds > 60.0) {
    std::fprintf(stderr, "error: --seconds must be in (0, 60]\n");
    return false;
  }
  return true;
}

/// What the rounds of one run add up to.
struct RunTotals {
  std::vector<double> WindowMops;
  std::vector<double> SetupSeconds;
  uint64_t Failed = 0;
  bool InvariantsHeld = true;
  double UntracedOps = 0, UntracedNs = 0;
  double TracedOps = 0, TracedNs = 0;
  stats::Snapshot TracedCounters;   ///< Summed over the traced windows.
  stats::Snapshot SetupAndWindows; ///< Last build to round end, summed.
};

using Clock = std::chrono::steady_clock;

Clock::duration toDuration(double Seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Seconds));
}

uint64_t completedOps(const std::vector<std::unique_ptr<WorkerState>> &States) {
  uint64_t Sum = 0;
  for (const auto &St : States)
    Sum += St->Completed.load(std::memory_order_relaxed);
  return Sum;
}

/// One round: fresh structure, warm-up, measured windows, the traced
/// window if asked for, then the round's correctness check.
bool runRound(const WorkloadSpec &W, const Args &A, unsigned Round,
              std::vector<std::unique_ptr<WorkerState>> &States,
              RunTotals &R) {
  uint64_t RoundSeed = A.Seed * Rounds + Round;
  RoundSeed = splitMix(RoundSeed);
  const InitialSet Initial(W.KeyRange, RoundSeed);
  stats::Snapshot BeforeLastBuild;
  Target T;
  for (unsigned Rep = 0; Rep != W.SetupReps; ++Rep) {
    T = Target(); // Free the last copy first: peak memory holds one.
    if (Rep + 1 == W.SetupReps)
      BeforeLastBuild = stats::snapshotAll();
    const uint64_t StartNs = nowNs();
    std::string Error;
    if (!buildTarget(W, T, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
    ConcurrentSet &Set = T.set();
    for (SetKey Key : Initial.Order)
      R.Failed += !Set.insert(Key);
    R.SetupSeconds.push_back(static_cast<double>(nowNs() - StartNs) * 1e-9);
  }
  if (A.LossyEvery)
    T.Set = std::make_unique<LossySet>(std::move(T.Set), A.LossyEvery);

  std::atomic<int> Ph{Warm};
  const double RoundSeconds = A.Seconds / Rounds;
  const unsigned Windows =
      std::max(1u, static_cast<unsigned>(std::lround(RoundSeconds / WindowSeconds)));
  std::atomic<unsigned> Window{static_cast<unsigned>(R.WindowMops.size())};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Workers; ++I) {
    States[I]->beginRound(Window);
    Threads.emplace_back(workerMain, std::cref(W), RoundSeed, I, std::ref(T),
                         std::ref(*States[I]), std::cref(Ph));
  }
  std::this_thread::sleep_for(
      toDuration(Round == 0 ? FirstWarmupSeconds : RoundWarmupSeconds));

  Ph.store(Measure, std::memory_order_relaxed);
  const Clock::time_point Start = Clock::now();
  const uint64_t StartNs = nowNs();
  const uint64_t StartOps = completedOps(States);
  uint64_t PrevNs = StartNs;
  uint64_t PrevOps = StartOps;
  for (unsigned I = 1; I <= Windows; ++I) {
    std::this_thread::sleep_until(Start +
                                  toDuration(RoundSeconds * I / Windows));
    const uint64_t Ns = nowNs();
    const uint64_t Ops = completedOps(States);
    R.WindowMops.push_back(ratio(static_cast<double>(Ops - PrevOps) * 1e3,
                                 static_cast<double>(Ns - PrevNs)));
    PrevNs = Ns;
    PrevOps = Ops;
    Window.fetch_add(1, std::memory_order_relaxed);
  }
  R.UntracedOps += static_cast<double>(PrevOps - StartOps);
  R.UntracedNs += static_cast<double>(PrevNs - StartNs);

  if (A.Trace) {
    Ph.store(Traced, std::memory_order_relaxed);
    const stats::Snapshot Before = stats::snapshotAll();
    const uint64_t TraceNs = nowNs();
    const uint64_t TraceOps = completedOps(States);
    std::this_thread::sleep_for(toDuration(RoundSeconds));
    R.TracedOps += static_cast<double>(completedOps(States) - TraceOps);
    R.TracedNs += static_cast<double>(nowNs() - TraceNs);
    R.TracedCounters += stats::snapshotAll().delta(Before);
  }
  R.SetupAndWindows += stats::snapshotAll().delta(BeforeLastBuild);
  Ph.store(Stop, std::memory_order_relaxed);
  for (std::thread &Th : Threads)
    Th.join();

  // Every op returned once, every key conserved, invariants intact.
  for (const auto &St : States)
    R.Failed += St->BadKeys + St->Ring.close();
  std::vector<uint8_t> Final(W.KeyRange, 0);
  for (SetKey Key : T.set().snapshot())
    if (Key < 0 || static_cast<uint64_t>(Key) >= W.KeyRange ||
        Final[static_cast<size_t>(Key)]++)
      ++R.Failed;
  for (uint64_t K = 0; K != W.KeyRange; ++K) {
    int64_t Expected = Initial.Present[K];
    for (const auto &St : States)
      Expected += St->NetDelta[K];
    R.Failed += Expected != Final[K];
  }
  if (!T.set().checkInvariants()) {
    std::fprintf(stderr, "error: checkInvariants() failed in round %u\n",
                 Round);
    R.InvariantsHeld = false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  const WorkloadSpec *Found = nullptr;
  for (const WorkloadSpec &W : AllWorkloads)
    if (A.Workload == W.Name)
      Found = &W;
  if (!Found) {
    std::fprintf(stderr, "error: unknown workload '%s'; one of:",
                 A.Workload.c_str());
    for (const WorkloadSpec &W : AllWorkloads)
      std::fprintf(stderr, " %s", W.Name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec &W = *Found;
  if (A.LossyEvery && W.Service) {
    std::fprintf(stderr, "error: --lossy-every wraps the library path; "
                         "use it with paper-fig1\n");
    return 2;
  }
  const unsigned Cpus = availableCpus();
  if (Cpus < Workers + 1) {
    std::fprintf(stderr,
                 "error: HostTooSmall: %u CPUs available, the benchmark "
                 "needs workers + 1 = %u\n",
                 Cpus, Workers + 1);
    return 2;
  }

  std::printf(
      "# stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"workers\": %u, \"nproc\": %u, \"cpu\": %s, "
      "\"build_type\": %s, \"vbl_stats\": %d, \"git_sha\": %s, "
      "\"source_digest\": %s, \"backend\": %s, \"rounds\": %u, "
      "\"latency_stride\": %llu}\n",
      jsonString(W.Name).c_str(), static_cast<unsigned long long>(A.Seed),
      jsonNumber(A.Seconds).c_str(), A.Trace ? 1 : 0, Workers, Cpus,
      jsonString(cpuModel()).c_str(),
      jsonString(PERFBENCH_BUILD_TYPE).c_str(), stats::Enabled ? 1 : 0,
      jsonString(A.GitSha).c_str(), jsonString(A.SourceDigest).c_str(),
      jsonString(W.Backend).c_str(), Rounds,
      static_cast<unsigned long long>(W.LatencyStride));
  std::fflush(stdout);

  std::vector<std::unique_ptr<WorkerState>> States;
  for (unsigned I = 0; I != Workers; ++I)
    States.push_back(
        std::make_unique<WorkerState>(W.KeyRange, W.LatencyStride));
  RunTotals R;
  for (unsigned Round = 0; Round != Rounds; ++Round)
    if (!runRound(W, A, Round, States, R))
      return 2;
  const double PeakRssMb = peakRssMb();

  uint64_t Attempted = 0;
  std::vector<size_t> ByThroughput(R.WindowMops.size());
  std::iota(ByThroughput.begin(), ByThroughput.end(), size_t{0});
  std::sort(ByThroughput.begin(), ByThroughput.end(),
            [&R](size_t X, size_t Y) {
              return R.WindowMops[X] > R.WindowMops[Y];
            });
  std::vector<uint8_t> IsCalm(R.WindowMops.size(), 0);
  std::vector<double> CalmMops;
  const size_t CalmCount =
      std::max<size_t>(1, ByThroughput.size() / CalmDivisor);
  for (size_t I = 0; I != CalmCount; ++I) {
    IsCalm[ByThroughput[I]] = 1;
    CalmMops.push_back(R.WindowMops[ByThroughput[I]]);
  }
  std::vector<uint32_t> Latency, CalmLatency;
  for (const auto &St : States) {
    Attempted += St->Issued;
    for (size_t I = 0; I != St->LatencyCount; ++I) {
      Latency.push_back(St->LatencyNs[I]);
      if (St->LatencyWindow[I] < IsCalm.size() &&
          IsCalm[St->LatencyWindow[I]])
        CalmLatency.push_back(St->LatencyNs[I]);
    }
  }
  std::sort(Latency.begin(), Latency.end());
  std::sort(CalmLatency.begin(), CalmLatency.end());
  const double N = static_cast<double>(Latency.size());
  const bool Correct = R.InvariantsHeld && R.Failed == 0;
  const double FailedShare =
      ratio(static_cast<double>(R.Failed), static_cast<double>(Attempted));

  const std::vector<Metric> EndToEnd = {
      {"throughput_mops", quantile(CalmMops, 0.5), "Mops/s"},
      {"latency_p50_us", p50(CalmLatency) * 1e-3, "us"},
      {"latency_p99_us", p99(CalmLatency) * 1e-3, "us"},
      {"setup_s", quantile(R.SetupSeconds, 0.5), "s"},
  };
  for (const Metric &M : EndToEnd)
    std::printf("# %-18s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  // Printed, not bounded: on paper-fig1 the epoch backlog a preempted
  // reader pins adds up to 7 MB in some runs, so the figure follows
  // the host's scheduling more than the program.
  std::printf("# %-18s %14.6f MB\n", "peak_rss_mb", PeakRssMb);
  std::printf("# %-18s %14.6g share (%llu of %llu ops)\n",
              "ops_failed_share", FailedShare,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(Attempted));
  std::printf("# %zu windows: min %.4f, median %.4f, max %.4f Mops/s; "
              "%zu calm\n",
              R.WindowMops.size(), quantile(R.WindowMops, 0.0),
              quantile(R.WindowMops, 0.5), quantile(R.WindowMops, 1.0),
              CalmMops.size());
  const double Calm = static_cast<double>(CalmLatency.size());
  std::printf("# latency samples %.0f (every %llu-th op), %.0f in calm "
              "windows: %.0f beyond p50, %.0f beyond p99\n",
              N, static_cast<unsigned long long>(W.LatencyStride), Calm,
              Calm * 0.5, Calm * 0.01);

  if (!A.Trace) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(R.Failed),
                metricsJson(EndToEnd).c_str());
    return Correct ? 0 : 1;
  }

  // Per-layer metrics from the traced windows. A layer the workload
  // does not reach reads 0.
  const stats::Snapshot &Window = R.TracedCounters;
  const auto get = [&Window](stats::Counter C) {
    return static_cast<double>(Window.get(C));
  };
  const auto perKop = [&R](double Count) {
    return ratio(Count, R.TracedOps * 1e-3);
  };
  /// Counts from the last build of each round through its windows,
  /// averaged per round. Signed: frees can outrun retires.
  const auto perRound = [&R](stats::Counter C) {
    return static_cast<double>(
               static_cast<int64_t>(R.SetupAndWindows.get(C))) /
           Rounds;
  };
  const std::vector<uint32_t> EnqueueNs =
      sortedKept(States, &TraceLog::Enqueue);
  const std::vector<uint32_t> VisitNs = sortedKept(States, &TraceLog::Visit);
  const std::vector<uint32_t> TakeNs = sortedKept(States, &TraceLog::Take);
  const std::vector<uint32_t> ContainsNs =
      sortedKept(States, &TraceLog::Contains);
  const std::vector<uint32_t> UpdateNs = sortedKept(States, &TraceLog::Update);
  std::vector<uint32_t> DwellNs;
  double ServiceBusyNs = 0.0;
  for (const auto &St : States) {
    DwellNs.insert(DwellNs.end(), St->Trace.DwellNs.begin(),
                   St->Trace.DwellNs.end());
    ServiceBusyNs += St->Trace.Enqueue.totalNs() +
                     St->Trace.Visit.totalNs() + St->Trace.Take.totalNs();
  }
  std::sort(DwellNs.begin(), DwellNs.end());
  const double UntracedMops = ratio(R.UntracedOps * 1e3, R.UntracedNs);
  const double TracedMops = ratio(R.TracedOps * 1e3, R.TracedNs);
  const double OverheadShare =
      ratio(UntracedMops - TracedMops, UntracedMops);
  const double Handoffs = get(stats::Counter::ServiceCombineHandoffs);
  const double CombineRounds = get(stats::Counter::ServiceCombineRounds);
  const double PoolHits = get(stats::Counter::PoolHits);
  const double PoolMisses = get(stats::Counter::PoolMisses);
  const double Advances = get(stats::Counter::EpochAdvances);
  const double Stalls = get(stats::Counter::EpochStalls);

  const std::vector<Metric> Layers = {
      {"service.enqueue_ns_p50", p50(EnqueueNs), "ns"},
      {"service.visit_us_p50", p50(VisitNs) * 1e-3, "us"},
      {"service.queue_dwell_us_p50", p50(DwellNs) * 1e-3, "us"},
      {"service.queue_dwell_us_p99", p99(DwellNs) * 1e-3, "us"},
      {"service.take_completed_ns_p50", p50(TakeNs), "ns"},
      {"service.ops_per_visit",
       W.Service ? ratio(R.TracedOps, get(stats::Counter::ServiceBatchFlushes))
                 : 0.0,
       "ops"},
      {"service.combine_ops_per_round",
       ratio(get(stats::Counter::ServiceOpsCombined), CombineRounds), "ops"},
      {"service.handoff_share", ratio(Handoffs, Handoffs + CombineRounds),
       "share"},
      {"service.busy_share", ratio(ServiceBusyNs, Workers * R.TracedNs),
       "share"},
      {"core.hops_per_op",
       ratio(get(stats::Counter::ListTraversalHops), R.TracedOps), "hops"},
      {"core.rejections_per_kop",
       perKop(get(stats::Counter::ListRestarts) +
              get(stats::Counter::ListTrylockFailures) +
              get(stats::Counter::ListValidationAborts) +
              get(stats::Counter::ListValueValidationAborts)),
       "1/kop"},
      {"core.lock_retries_per_kop",
       perKop(get(stats::Counter::LockAcquireRetries)), "1/kop"},
      {"core.contains_ns_p50", p50(ContainsNs), "ns"},
      {"core.update_ns_p50", p50(UpdateNs), "ns"},
      {"core.chunk_aborts_per_kop",
       perKop(get(stats::Counter::ChunkValidationAborts)), "1/kop"},
      {"core.chunk_restructures_per_kop",
       perKop(get(stats::Counter::ChunkSplits) +
              get(stats::Counter::ChunkCompactions) +
              get(stats::Counter::ChunkUnlinks) +
              get(stats::Counter::ChunkMerges)),
       "1/kop"},
      {"maps.bucket_inits_per_kop",
       perKop(get(stats::Counter::MapBucketInits)), "1/kop"},
      {"maps.resizes", perRound(stats::Counter::MapResizes), "count"},
      {"reclaim.pool_miss_share", ratio(PoolMisses, PoolHits + PoolMisses),
       "share"},
      {"reclaim.epoch_stall_share", ratio(Stalls, Advances + Stalls),
       "share"},
      {"reclaim.retire_backlog",
       perRound(stats::Counter::EpochRetired) -
           perRound(stats::Counter::EpochFreed) +
           perRound(stats::Counter::HpRetired) -
           perRound(stats::Counter::HpFreed),
       "count"},
      {"trace.overhead_share", OverheadShare, "share"},
  };

  std::printf(
      "# diagnostics {\"latency_p999_us\": %s, \"latency_max_us\": %s, "
      "\"latency_samples\": %.0f, \"samples_beyond_p50\": %.0f, "
      "\"samples_beyond_p99\": %.0f, \"samples_beyond_p999\": %.0f, "
      "\"untraced_mops\": %s, \"traced_mops\": %s, "
      "\"trace.overhead_share\": %s, \"ops_failed_share\": %s, "
      "\"span_samples\": {\"enqueue\": %zu, \"visit\": %zu, \"take\": %zu, "
      "\"dwell\": %zu, \"contains\": %zu, \"update\": %zu}}\n",
      jsonNumber(bandPercentile(Latency, 99.9, 0.025) * 1e-3).c_str(),
      jsonNumber(Latency.empty() ? 0.0 : Latency.back() * 1e-3).c_str(), N,
      N * 0.5, N * 0.01, N * 0.001, jsonNumber(UntracedMops).c_str(),
      jsonNumber(TracedMops).c_str(), jsonNumber(OverheadShare).c_str(),
      jsonNumber(FailedShare).c_str(), EnqueueNs.size(), VisitNs.size(),
      TakeNs.size(), DwellNs.size(), ContainsNs.size(), UpdateNs.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(R.Failed),
              metricsJson(Layers).c_str());
  return Correct ? 0 : 1;
}
