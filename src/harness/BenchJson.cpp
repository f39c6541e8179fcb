//===- harness/BenchJson.cpp - Machine-readable benchmark records --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"

#include <cstdio>
#include <string>

using namespace vbl;
using namespace vbl::harness;

namespace {

void appendEscaped(std::string &Out, const std::string &Text) {
  Out += '"';
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void appendNumber(std::string &Out, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Out += Buf;
}

} // namespace

void BenchJsonReport::setContext(std::string Key, std::string Value) {
  for (auto &Entry : Context) {
    if (Entry.first == Key) {
      Entry.second = std::move(Value);
      return;
    }
  }
  Context.emplace_back(std::move(Key), std::move(Value));
}

std::string BenchJsonReport::toJson() const {
  std::string Out;
  Out += "{\n  \"schema\": \"vbl-bench-v1\",\n  \"context\": {";
  for (size_t I = 0; I != Context.size(); ++I) {
    Out += I ? ",\n    " : "\n    ";
    appendEscaped(Out, Context[I].first);
    Out += ": ";
    appendEscaped(Out, Context[I].second);
  }
  Out += Context.empty() ? "},\n" : "\n  },\n";
  Out += "  \"records\": [";
  for (size_t I = 0; I != Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"bench\": ";
    appendEscaped(Out, R.Bench);
    Out += ", \"structure\": ";
    appendEscaped(Out, R.Structure);
    Out += ", \"threads\": " + std::to_string(R.Threads);
    Out += ", \"key_range\": " + std::to_string(R.KeyRange);
    Out += ", \"update_pct\": " + std::to_string(R.UpdatePercent);
    Out += ", \"repeats\": " + std::to_string(R.Repeats);
    Out += ", \"throughput_ops_s\": ";
    appendNumber(Out, R.ThroughputOpsPerSec);
    Out += ", \"throughput_stddev\": ";
    appendNumber(Out, R.ThroughputStddev);
    Out += ", \"p50_latency_ns\": ";
    if (R.HasLatency)
      appendNumber(Out, R.P50LatencyNs);
    else
      Out += "null";
    Out += ", \"p99_latency_ns\": ";
    if (R.HasLatency)
      appendNumber(Out, R.P99LatencyNs);
    else
      Out += "null";
    Out += ", \"p999_latency_ns\": ";
    if (R.HasLatency)
      appendNumber(Out, R.P999LatencyNs);
    else
      Out += "null";
    if (R.HasStats) {
      Out += ", \"stats\": {";
      stats::appendJsonFields(R.Stats, Out);
      Out += '}';
    }
    Out += '}';
  }
  Out += Records.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return Out;
}

bool BenchJsonReport::writeFile(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 Path.c_str());
    return false;
  }
  const std::string Doc = toJson();
  const bool Ok =
      std::fwrite(Doc.data(), 1, Doc.size(), File) == Doc.size();
  std::fclose(File);
  if (!Ok)
    std::fprintf(stderr, "error: short write to '%s'\n", Path.c_str());
  return Ok;
}

BenchRecord
vbl::harness::detail::throughputRecord(const std::string &Bench,
                                       const std::string &Structure,
                                       const WorkloadConfig &Config,
                                       const SampleStats &Throughput) {
  BenchRecord Record;
  Record.Bench = Bench;
  Record.Structure = Structure;
  Record.Threads = Config.Threads;
  Record.KeyRange = Config.KeyRange;
  Record.UpdatePercent = Config.UpdatePercent;
  Record.Repeats = Config.Repeats;
  // Median across repeats, not mean: one descheduled window must not
  // drag the record down — the CI gate compares these numbers.
  Record.ThroughputOpsPerSec = Throughput.percentile(50);
  Record.ThroughputStddev = Throughput.stddev();
  if (statsCollectionEnabled()) {
    Record.HasStats = true;
    Record.Stats = lastMeasuredStats();
  }
  return Record;
}

void BenchRecord::setLatency(const SampleStats &Samples) {
  if (Samples.empty())
    return;
  HasLatency = true;
  P50LatencyNs = Samples.percentile(50);
  P99LatencyNs = Samples.percentile(99);
  P999LatencyNs = Samples.percentile(99.9);
}
