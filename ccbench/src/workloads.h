// The four workloads and the run context they share.

#ifndef CCBENCH_WORKLOADS_H_
#define CCBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ccidx/query/epoch_gate.h"
#include "common.h"

namespace ccbench {

/// One run: options, the clocks behind setup_s, the host record and the
/// outcome the workload fills.
struct RunContext {
  Options opt;
  Clock::time_point process_start;
  /// Time spent generating inputs; excluded from setup_s.
  double excluded_s = 0;
  HostRecord host;
  Outcome out;

  /// Set-up time so far: from process start, input generation excluded.
  double SetupSeconds() const {
    return SecondsBetween(process_start, Clock::now()) - excluded_s;
  }
  /// Fails the run with `what` unless it is empty.
  void Check(const std::string& what, const std::string& where) {
    if (!what.empty()) out.Fail(where + ": " + what);
  }
};

void RunServeRead(RunContext* ctx);
void RunColdPaper(RunContext* ctx);
void RunDurableWrites(RunContext* ctx);
void RunDynamicChurn(RunContext* ctx);

// --- small shared helpers ---------------------------------------------------

/// Adds name_p50/name_p99 style percentiles (copies the samples).
inline double P(std::vector<double> v, double q) { return Percentile(&v, q); }

/// Histogram difference (for cumulative gate-wait histograms).
inline ccidx::WaitHistogram Minus(const ccidx::WaitHistogram& a,
                                  const ccidx::WaitHistogram& b) {
  ccidx::WaitHistogram d;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = a.buckets[i] - b.buckets[i];
  }
  d.count = a.count - b.count;
  d.total_ns = a.total_ns - b.total_ns;
  d.max_ns = a.max_ns;
  return d;
}

/// Log2-bucket p99 of a queue-depth histogram (bucket b holds depths in
/// [2^b, 2^(b+1)); depth 0 lands in bucket 0): the bucket's upper edge.
inline double DepthP99(const std::vector<uint64_t>& hist) {
  uint64_t total = 0;
  for (uint64_t h : hist) total += h;
  if (total == 0) return 0;
  const uint64_t rank = total - total / 100;
  uint64_t seen = 0;
  for (size_t b = 0; b < hist.size(); ++b) {
    seen += hist[b];
    if (seen >= rank) return static_cast<double>(uint64_t{2} << b);
  }
  return 0;
}

}  // namespace ccbench

#endif  // CCBENCH_WORKLOADS_H_
