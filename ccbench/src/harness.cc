#include "harness.h"

#include <cstdio>
#include <filesystem>
#include <set>

namespace ccbench {

PhaseSummary Summarize(const std::vector<ClientTally>& tallies) {
  PhaseSummary s;
  for (const ClientTally& t : tallies) {
    s.reads += t.reads;
    s.updates += t.updates;
    s.update_ops += t.update_ops;
    s.failed += t.failed;
    s.read_us.insert(s.read_us.end(), t.read_us.begin(), t.read_us.end());
    s.update_us.insert(s.update_us.end(), t.update_us.begin(),
                       t.update_us.end());
    s.read_at.insert(s.read_at.end(), t.read_at.begin(), t.read_at.end());
    s.update_at.insert(s.update_at.end(), t.update_at.begin(),
                       t.update_at.end());
    if (s.first_error.empty() && !t.first_error.empty()) {
      s.first_error = t.first_error;
    }
  }
  return s;
}

std::vector<double> WindowRates(const std::vector<double>& at, double seconds,
                                double window) {
  const size_t n = static_cast<size_t>(seconds / window);
  std::vector<double> counts(n, 0);
  for (double t : at) {
    size_t w = static_cast<size_t>(t / window);
    if (w < n) counts[w] += 1;
  }
  for (double& c : counts) c /= window;
  return counts;
}

WindowedFigures Windowed(const PhaseSummary& s, uint32_t ops_per_update) {
  WindowedFigures f;
  std::vector<double> reads = WindowRates(s.read_at, s.seconds);
  std::vector<double> updates = WindowRates(s.update_at, s.seconds);
  std::vector<double> ops(reads.size());
  for (size_t w = 0; w < reads.size(); ++w) {
    ops[w] = reads[w] + updates[w] * ops_per_update;
  }
  f.qps = Median(reads);
  f.ops_s = Median(ops);
  std::vector<double> all = s.read_us;
  f.p50_us = Percentile(&all, 0.5);
  f.p99_us = Percentile(&all, 0.99);
  return f;
}

const char* QuerySpanName(const std::string& family) {
  // Span names must outlive the run: intern them.
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard lock(mu);
  return names.insert(family + ".query").first->c_str();
}

void AddBuildMetrics(Outcome* out,
                     const std::vector<std::pair<std::string, double>>& times,
                     uint64_t device_writes, uint64_t records) {
  for (const auto& [name, seconds] : times) out->Add(name, seconds, "s");
  out->Add("build.device_writes_per_record",
           records > 0 ? static_cast<double>(device_writes) / records : 0,
           "pages");
}

void FinishTrace(RunContext* ctx) {
  std::vector<Span> spans = Tracer::Get().Collect();
  auto summary = Tracer::Summarize(spans);
  std::string line = "{\"trace_self_time_us\": {";
  bool first = true;
  for (const auto& [name, s] : summary) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"spans\": %llu, \"total\": %.1f, \"self\": "
                  "%.1f}",
                  first ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_us,
                  s.self_us);
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  if (!ctx->opt.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(ctx->opt.trace_dir, ec);
    const std::string path = ctx->opt.trace_dir + "/" + ctx->opt.workload +
                             "-seed" + std::to_string(ctx->opt.seed) +
                             ".spans.csv";
    if (ec || !Tracer::Dump(spans, path)) {
      std::fprintf(stderr, "ccbench: could not write %s\n", path.c_str());
    }
  }
}

}  // namespace ccbench
