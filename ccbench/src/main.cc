// ccbench: one checked benchmark for ccidx.
//
//   ccbench --workload <serve-read|cold-paper|durable-writes|dynamic-churn>
//           --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Builds the workload's tables from inputs generated from the seed, drives
// the load for the given seconds, checks every answer against the
// benchmark's own references, and prints, as the last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of the traced run. Earlier stdout lines carry the host
// record, sample counts, and (traced) the per-span self times. Exits 1
// when a check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metric_names.h"
#include "workloads.h"

namespace ccbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ccbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n");
  return 2;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int Main(int argc, char** argv) {
  RunContext ctx;
  ctx.process_start = Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      ctx.opt.workload = v;
    } else if (k == "--seed") {
      ctx.opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      ctx.opt.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      ctx.opt.trace = v == "1";
    } else if (k == "--trace-dir") {
      ctx.opt.trace_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || ctx.opt.seconds <= 0) return Usage();

  if (ctx.opt.workload == "serve-read") {
    RunServeRead(&ctx);
  } else if (ctx.opt.workload == "cold-paper") {
    RunColdPaper(&ctx);
  } else if (ctx.opt.workload == "durable-writes") {
    RunDurableWrites(&ctx);
  } else if (ctx.opt.workload == "dynamic-churn") {
    RunDynamicChurn(&ctx);
  } else {
    return Usage();
  }

  Outcome& out = ctx.out;
  if (out.attempted == 0) out.Fail("no operation was attempted");
  const std::vector<MetricName>& names =
      ctx.opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricName& m : names) {
    double value = 0;
    bool found = false;
    for (const Metric& got : out.metrics()) {
      if (got.name == m.name) {
        value = got.value;
        found = true;
      }
    }
    // Every end-to-end metric is measured on every workload; a per-layer
    // metric of a layer the workload does not exercise reads 0.
    if (!found && !ctx.opt.trace) out.Fail("metric not measured: " + m.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Num(value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const Metric& got : out.metrics()) {
    bool listed = false;
    for (const MetricName& m : names) listed |= m.name == got.name;
    if (!listed) out.Fail("metric not declared: " + got.name);
  }

  std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu}\n",
              HostJson(ctx.host).c_str(), ctx.opt.workload.c_str(),
              static_cast<unsigned long long>(ctx.opt.seed));
  std::string notes;
  for (const auto& [k, v] : out.notes()) {
    if (!notes.empty()) notes += ", ";
    notes += "\"" + k + "\": " + Num(v);
  }
  std::printf("{\"notes\": {%s}}\n", notes.c_str());
  for (const std::string& e : out.errors()) {
    std::fprintf(stderr, "ccbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.correct() ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace ccbench

int main(int argc, char** argv) { return ccbench::Main(argc, argv); }
