//===- harness/TablePrinter.cpp - Figure/table rendering -----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/TablePrinter.h"

#include "support/AsciiChart.h"
#include "support/Compiler.h"

#include <cstdio>

using namespace vbl;
using namespace vbl::harness;

Panel::Panel(std::string Title, std::vector<std::string> Algorithms,
             std::vector<unsigned> ThreadCounts)
    : Title(std::move(Title)), Algorithms(std::move(Algorithms)),
      ThreadCounts(std::move(ThreadCounts)) {
  Results.assign(this->ThreadCounts.size(),
                 std::vector<SampleStats>(this->Algorithms.size()));
  StatsResults.assign(this->ThreadCounts.size(),
                      std::vector<stats::Snapshot>(this->Algorithms.size()));
}

size_t Panel::indexOf(const std::string &Algorithm) const {
  for (size_t I = 0; I != Algorithms.size(); ++I)
    if (Algorithms[I] == Algorithm)
      return I;
  vbl_unreachable("algorithm not part of this panel");
}

void Panel::setResult(unsigned Threads, const std::string &Algorithm,
                      const SampleStats &Stats) {
  for (size_t T = 0; T != ThreadCounts.size(); ++T) {
    if (ThreadCounts[T] != Threads)
      continue;
    Results[T][indexOf(Algorithm)] = Stats;
    return;
  }
  vbl_unreachable("thread count not part of this panel");
}

void Panel::print() const {
  std::printf("\n== %s ==\n", Title.c_str());
  std::printf("%8s", "threads");
  for (const std::string &Algorithm : Algorithms)
    std::printf(" %18s", Algorithm.c_str());
  if (Algorithms.size() >= 2)
    std::printf(" %10s/%s", Algorithms[0].c_str(),
                Algorithms[1].c_str());
  std::printf("\n");
  for (size_t T = 0; T != ThreadCounts.size(); ++T) {
    std::printf("%8u", ThreadCounts[T]);
    for (size_t A = 0; A != Algorithms.size(); ++A) {
      const SampleStats &Stats = Results[T][A];
      if (Stats.empty()) {
        std::printf(" %18s", "-");
        continue;
      }
      std::printf(" %10.3f ±%6.3f", Stats.mean() * 1e-6,
                  Stats.stddev() * 1e-6);
    }
    if (Algorithms.size() >= 2 && !Results[T][0].empty() &&
        !Results[T][1].empty() && Results[T][1].mean() > 0)
      std::printf(" %10.2fx", Results[T][0].mean() / Results[T][1].mean());
    std::printf("\n");
  }
  std::printf("   (cells: Mops/s mean ± stddev over repeats)\n");

  // Draw the panel the way the paper's figures read: throughput over
  // thread count, one glyph per algorithm.
  std::vector<std::string> XLabels;
  for (unsigned Threads : ThreadCounts)
    XLabels.push_back(std::to_string(Threads));
  std::vector<ChartSeries> Series;
  bool Complete = true;
  for (size_t A = 0; A != Algorithms.size(); ++A) {
    ChartSeries S;
    S.Label = Algorithms[A];
    for (size_t T = 0; T != ThreadCounts.size(); ++T) {
      if (Results[T][A].empty()) {
        Complete = false;
        break;
      }
      S.Values.push_back(Results[T][A].mean() * 1e-6);
    }
    Series.push_back(std::move(S));
  }
  if (Complete && ThreadCounts.size() > 1)
    std::fputs(renderAsciiChart(XLabels, Series, 12, "Mops/s").c_str(),
               stdout);

  // --stats runs: one counter table per measured cell, after the
  // figure so the default reading order is unchanged.
  for (size_t T = 0; T != ThreadCounts.size(); ++T) {
    for (size_t A = 0; A != Algorithms.size(); ++A) {
      if (StatsResults[T][A].empty())
        continue;
      std::printf("\n  -- stats: %s @ %u threads --\n",
                  Algorithms[A].c_str(), ThreadCounts[T]);
      std::fputs(stats::renderTable(StatsResults[T][A], "    ").c_str(),
                 stdout);
    }
  }
}

void Panel::appendJson(BenchJsonReport &Report,
                       const WorkloadConfig &Base) const {
  for (size_t T = 0; T != ThreadCounts.size(); ++T) {
    for (size_t A = 0; A != Algorithms.size(); ++A) {
      const SampleStats &Stats = Results[T][A];
      if (Stats.empty())
        continue;
      BenchRecord Record;
      Record.Bench = Title;
      Record.Structure = Algorithms[A];
      Record.Threads = ThreadCounts[T];
      Record.KeyRange = Base.KeyRange;
      Record.UpdatePercent = Base.UpdatePercent;
      Record.Repeats = static_cast<unsigned>(Stats.count());
      // Median across repeats (see measurePoint): gate-friendly.
      Record.ThroughputOpsPerSec = Stats.percentile(50);
      Record.ThroughputStddev = Stats.stddev();
      if (!StatsResults[T][A].empty()) {
        Record.HasStats = true;
        Record.Stats = StatsResults[T][A];
      }
      Report.add(Record);
    }
  }
}

double Panel::mean(unsigned Threads, const std::string &Algorithm) const {
  for (size_t T = 0; T != ThreadCounts.size(); ++T)
    if (ThreadCounts[T] == Threads)
      return Results[T][indexOf(Algorithm)].mean();
  vbl_unreachable("thread count not part of this panel");
}
