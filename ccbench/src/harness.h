// Measurement helpers shared by the workloads: phase summaries, the timed
// closed-loop phase, the RunBatch replay and the single-thread direct-call
// timings of the traced run, and the trace epilogue.

#ifndef CCBENCH_HARNESS_H_
#define CCBENCH_HARNESS_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ccidx/io/pager.h"
#include "ccidx/query/executor.h"
#include "ccidx/query/sink.h"
#include "reference.h"
#include "tcp_load.h"
#include "workloads.h"

namespace ccbench {

/// The merged tallies of one phase.
struct PhaseSummary {
  double seconds = 0;
  uint64_t reads = 0, updates = 0, update_ops = 0, failed = 0;
  std::vector<double> read_us, update_us;
  std::vector<double> read_at, update_at;  // completion times, seconds
  std::string first_error;  // first check failure or failed request
};

/// Events per second in each whole `window`-second slice of [0, seconds).
std::vector<double> WindowRates(const std::vector<double>& at, double seconds,
                                double window = 1.0);

PhaseSummary Summarize(const std::vector<ClientTally>& tallies);

/// The end-to-end figures of a closed-loop TCP phase. Rates are medians
/// over its 1-second windows, so a second-long stall of a shared host
/// moves one window, not the figure; latency percentiles are taken over
/// every sample.
struct WindowedFigures {
  double qps = 0;     // read requests per second
  double ops_s = 0;   // reads + update ops per second
  double p50_us = 0;  // read latency
  double p99_us = 0;
};
WindowedFigures Windowed(const PhaseSummary& s, uint32_t ops_per_update);

/// Runs the TCP load for `seconds` and times it.
template <typename Make, typename Check>
PhaseSummary TimedPhase(TcpLoad* load, double seconds, Make&& make,
                        Check&& check) {
  auto t0 = Clock::now();
  auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  PhaseSummary s = Summarize(load->Run(deadline, 0, make, check));
  s.seconds = SecondsBetween(t0, Clock::now());
  return s;
}

/// "<family>.query": the span name of a direct family call.
const char* QuerySpanName(const std::string& family);

/// A request list replayed through QueryExecutor::RunBatch.
template <typename R>
struct ReplayOutcome {
  std::vector<R> responses;
  double us_per_query = 0;      // batch wall time per query
  double worker_skew = 0;       // max / mean of per-thread query counts
  double executor_self_us = 0;  // batch span self time per query
  double pins_per_query = 0;
};

/// Replays `reqs` in batches of `batch` through a 4-worker QueryExecutor,
/// with a "query.run_batch" span per batch and one family span per query
/// (on the worker, parented to its batch).
template <typename Q, typename R, typename Run>
ReplayOutcome<R> ReplayBatches(const std::vector<Q>& reqs, size_t batch,
                               ccidx::Pager* pager, const char* query_span,
                               Run&& run) {
  ReplayOutcome<R> out;
  out.responses.resize(reqs.size());
  ccidx::QueryExecutor exec(4);
  std::vector<uint64_t> per_thread(exec.num_threads(), 0);
  const ccidx::IoStats io0 = pager->CombinedStats();
  const uint64_t first_span = Tracer::Get().NewId();
  auto t0 = Clock::now();
  for (size_t off = 0; off < reqs.size(); off += batch) {
    const size_t len = std::min(batch, reqs.size() - off);
    ScopedSpan span("query.run_batch");
    const uint64_t parent = span.id();
    ccidx::BatchReport rep = exec.RunBatch(
        std::span<const Q>(reqs.data() + off, len),
        [&](const Q& q, size_t i, unsigned) {
          ScopedSpan child(query_span, 0, parent);
          return run(q, &out.responses[off + i]);
        },
        pager);
    for (size_t w = 0; w < per_thread.size(); ++w) {
      per_thread[w] += rep.per_thread_queries[w];
    }
  }
  const double us = MicrosBetween(t0, Clock::now());
  const ccidx::IoStats io = pager->CombinedStats() - io0;
  const double n = static_cast<double>(reqs.size());
  out.us_per_query = us / n;
  uint64_t mx = 0, sum = 0;
  for (uint64_t q : per_thread) {
    mx = std::max(mx, q);
    sum += q;
  }
  out.worker_skew =
      sum > 0 ? mx / (static_cast<double>(sum) / per_thread.size()) : 0;
  out.pins_per_query = io.pin_requests / n;
  std::vector<Span> spans = Tracer::Get().Collect();
  std::erase_if(spans, [&](const Span& s) { return s.id < first_span; });
  out.executor_self_us =
      Tracer::Summarize(spans)["query.run_batch"].self_us / n;
  return out;
}

/// Single-thread direct calls, one span each.
template <typename R>
struct DirectOutcome {
  std::vector<R> responses;
  double us_per_query = 0;
};

template <typename Q, typename R, typename Run>
DirectOutcome<R> TimeDirect(const std::vector<Q>& reqs, const char* span_name,
                            Run&& run) {
  DirectOutcome<R> out;
  out.responses.resize(reqs.size());
  double us = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    auto t0 = Clock::now();
    {
      ScopedSpan span(span_name);
      run(reqs[i], &out.responses[i]);
    }
    us += MicrosBetween(t0, Clock::now());
  }
  out.us_per_query = us / static_cast<double>(reqs.size());
  return out;
}

/// Runs a family query with the sink `mode` asks for, converting returned
/// records to their wire form: records into *records, the answer size
/// (or the exists bit) into *count.
template <typename T, typename Conv, typename RunFn>
ccidx::Status RunSinkMode(Mode mode, uint32_t k, std::vector<Rec>* records,
                          uint64_t* count, Conv conv, RunFn run) {
  ccidx::Status s;
  switch (mode) {
    case Mode::kRecords: {
      ccidx::FunctionSink<T> sink([&](std::span<const T> batch) {
        for (const T& r : batch) records->push_back(conv(r));
        return ccidx::SinkState::kContinue;
      });
      s = run(&sink);
      *count = records->size();
      break;
    }
    case Mode::kCount: {
      ccidx::CountSink<T> sink;
      s = run(&sink);
      *count = sink.count();
      break;
    }
    case Mode::kExists: {
      ccidx::ExistsSink<T> sink;
      s = run(&sink);
      *count = sink.exists() ? 1 : 0;
      break;
    }
    case Mode::kLimit: {
      ccidx::LimitSink<T> sink(k);
      s = run(&sink);
      for (const T& r : sink.results()) records->push_back(conv(r));
      *count = records->size();
      break;
    }
  }
  return s;
}

/// Pool lookups that hit: hits / (hits + misses). Not hits / pin_requests:
/// the pager counts the hits and misses of unpinned warm-ups too, but not
/// as pin requests, so that ratio can exceed 1 (see CHANGES.md).
inline double HitRatio(const ccidx::IoStats& io) {
  const double lookups = static_cast<double>(io.cache_hits + io.cache_misses);
  return lookups > 0 ? io.cache_hits / lookups : 0;
}

/// build.<family>_s for each entry, and build.device_writes_per_record.
void AddBuildMetrics(Outcome* out,
                     const std::vector<std::pair<std::string, double>>& times,
                     uint64_t device_writes, uint64_t records);

/// Collects every span of the run, writes them under the trace directory,
/// and notes each span name's count, total and self time.
void FinishTrace(RunContext* ctx);

}  // namespace ccbench

#endif  // CCBENCH_HARNESS_H_
