//===- bench/range_scan.cpp - Range-scan mixes across substrates ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Where do chunked scans pay? A flat list's rangeQuery chases one
/// pointer per key; the chunk list collects up to K keys per cache
/// line under one seqlock-validated window. This sweep mixes point ops
/// with range scans — point-only (scan 0%), mixed (10%) and scan-heavy
/// (50%) — over `vbl-chunk` (K=7), `vbl-chunk-k15`, flat `vbl`,
/// `harris-michael` (the lock-free mark-aware scan) and
/// `skiplist-lazy`, plus a scan-length sweep at fixed range. Expected
/// shape: at small windows the scan is dominated by the routed entry
/// and all substrates tie; as windows grow the chunk layout pulls
/// ahead roughly K-fold on scan-heavy mixes. With --stats the records
/// carry scan.retries / scan.fallbacks / scan.keys_returned, so the
/// optimistic window's retry rate under update pressure is visible in
/// the same document.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <vector>

using namespace vbl;
using namespace vbl::harness;

namespace {

/// The point-op mix with range scans drawn into the stream: ScanPercent
/// of ops scan the window [Key, Key + ScanLength - 1], the rest follow
/// the usual update/contains split of WorkloadConfig::UpdatePercent.
/// Scans count as one op each — the mixes are compared within a scan
/// percent, never across.
class ScanSource {
public:
  ScanSource(const WorkloadConfig &Config, unsigned ScanPercent,
             SetKey ScanLength)
      : Range(static_cast<uint64_t>(Config.KeyRange)),
        Picker(Config.UpdatePercent), ScanPercent(ScanPercent),
        ScanLength(ScanLength) {}

  SetOp operator()(ConcurrentSet &Set, Xoshiro256 &Rng) {
    const SetKey Key = static_cast<SetKey>(Rng.nextBounded(Range));
    if (Rng.nextBounded(100) < ScanPercent) {
      ScanOut.clear();
      Set.rangeQuery(Key, Key + ScanLength - 1, ScanOut);
      return SetOp::RangeQuery;
    }
    return applyOp(Set, Picker.pick(Rng), Key);
  }

private:
  uint64_t Range;
  OpPicker Picker;
  unsigned ScanPercent;
  SetKey ScanLength;
  std::vector<SetKey> ScanOut;
};

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Range-scan mixes: chunked vs flat vs lock-free scans");
  Flags.addUnsignedList("threads", {1, 4}, "thread counts to sweep");
  Flags.addUnsignedList("ranges", {1024, 8192}, "key ranges to sweep");
  Flags.addUnsignedList("scan-percents", {0, 10, 50},
                        "scan share per mix: 0 = point-only baseline, "
                        "10 = mixed, 50 = scan-heavy");
  Flags.addUnsignedList("scan-lengths", {256},
                        "keys per scan window; sweep to locate where "
                        "the chunk layout starts paying");
  Flags.addInt("update-percent", 20,
               "updates within the non-scan remainder");
  Flags.addInt("duration-ms", 80, "measured window per repetition");
  Flags.addInt("warmup-ms", 25, "warm-up before each window");
  Flags.addInt("repeats", 2, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addStringList("structures",
                      {"vbl-chunk", "vbl", "vbl-chunk-k15",
                       "harris-michael", "skiplist-lazy"},
                      "comma-separated registry names to sweep");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect scan.{retries,fallbacks,keys_returned} and "
                "report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  BenchJsonReport Report;
  Report.setContext("bench_binary", "range_scan");

  for (unsigned Range : Flags.getUnsignedList("ranges")) {
    for (unsigned ScanPercent : Flags.getUnsignedList("scan-percents")) {
      for (unsigned ScanLength : Flags.getUnsignedList("scan-lengths")) {
        // The point-only baseline is scan-length-independent; emit it
        // once per range, under the first length only.
        if (ScanPercent == 0 &&
            ScanLength != Flags.getUnsignedList("scan-lengths").front())
          continue;
        WorkloadConfig Base = windowFromFlags(Flags);
        Base.UpdatePercent =
            static_cast<unsigned>(Flags.getInt("update-percent"));
        Base.KeyRange = Range;

        char Title[96];
        if (ScanPercent == 0)
          std::snprintf(Title, sizeof(Title),
                        "range_scan point-only range %u", Range);
        else
          std::snprintf(Title, sizeof(Title),
                        "range_scan scan%u len%u range %u", ScanPercent,
                        ScanLength, Range);
        // First/second form the printed ratio column: vbl-chunk / vbl
        // is the chunked-scan speedup under test.
        Panel P(Title, Flags.getStringList("structures"),
                Flags.getUnsignedList("threads"));
        P.measureAll(Base, ScanSource(Base, ScanPercent, ScanLength));
        P.print();
        P.appendJson(Report, Base);
      }
    }
  }

  std::printf("\n(vbl-chunk/vbl is the chunked-scan speedup; it should "
              "grow with scan length and scan share — the point-only "
              "panels pin the chunk protocol's baseline cost)\n");
  if (!Flags.getString("json").empty() &&
      !Report.writeFile(Flags.getString("json")))
    return 1;
  return 0;
}
