//===- bench/ablation_vbl.cpp - Where VBL's win comes from ---------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Ablation of the design choices DESIGN.md calls out, on the Fig. 1
/// workload (most contended):
///
///  - vbl                : full algorithm;
///  - vbl-node-aware     : lockNextAtValue replaced by node-identity
///                         validation and insert deciding under the
///                         lock (Lazy-style placement) — isolates the
///                         value-aware rule;
///  - vbl-head-restart   : failed validations re-traverse from the head
///                         instead of from prev — isolates the restart
///                         optimisation (§3.2 line 24);
///  - vbl-ttas           : TTAS node locks instead of TAS;
///  - lazy / optimistic / hand-over-hand / coarse: the historical
///                         baseline ladder for context.
///
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

using namespace vbl;
using namespace vbl::harness;

int main(int Argc, char **Argv) {
  FlagSet Flags("VBL ablations on the contended Fig.1 workload");
  Flags.addUnsignedList("threads", {1, 2, 4, 8}, "thread counts");
  Flags.addInt("range", 50, "key range");
  Flags.addInt("update-percent", 20, "percentage of updates");
  Flags.addInt("duration-ms", 80, "measured window per repetition");
  Flags.addInt("warmup-ms", 25, "warm-up per window");
  Flags.addInt("repeats", 2, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  WorkloadConfig Base = windowFromFlags(Flags);
  Base.UpdatePercent =
      static_cast<unsigned>(Flags.getInt("update-percent"));
  Base.KeyRange = Flags.getInt("range");

  Panel Variants("VBL variants",
                 {"vbl", "vbl-node-aware", "vbl-head-restart",
                  "vbl-ttas"},
                 Flags.getUnsignedList("threads"));
  Variants.measureAll(Base);
  Variants.print();

  Panel Ladder("baseline ladder",
               {"vbl", "lazy", "optimistic", "hand-over-hand", "coarse"},
               Flags.getUnsignedList("threads"));
  Ladder.measureAll(Base);
  Ladder.print();
  return 0;
}
