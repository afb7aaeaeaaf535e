// Shared plumbing of the ccbench program: options, the seeded generator,
// latency summaries, the result record every workload fills, the host
// record, and the span tracer of the traced run.
//
// Everything here is the benchmark's own code. It calls into ccidx only
// through public headers; spans are recorded around those calls, never
// inside the library.

#ifndef CCBENCH_COMMON_H_
#define CCBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ccbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options; the seed is the only source of input variation.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

/// splitmix64: small, fast, and identical on every platform, so one seed
/// gives the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
  }

 private:
  uint64_t s_;
};

/// Nearest-rank percentile, q in [0, 1]. Sorts `v` in place; 0 if empty.
double Percentile(std::vector<double>* v, double q);

/// Median (the mean of the two middle values for an even count); 0 if
/// empty.
double Median(std::vector<double> v);

/// A metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Check failures flip `correct` and keep
/// the first few messages for stderr.
class Outcome {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (the run fails).
  void Fail(const std::string& what);
  /// Extra facts printed on their own stdout line (sample counts, ...).
  void Note(const std::string& key, double value);

  bool correct() const { return errors_total_ == 0; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, double>>& notes() const {
    return notes_;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::mutex mu_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> notes_;
  std::vector<std::string> errors_;
  uint64_t errors_total_ = 0;
};

/// The host facts every run records beside its figures.
struct HostRecord {
  std::string backend = "mem";
  uint32_t read_latency_us = 0;
  std::string wal_storage = "none";
  std::string flush_policy = "none";
};
std::string HostJson(const HostRecord& h);

/// Peak resident set of this process, MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Tracing (the traced run only)
// ---------------------------------------------------------------------------

/// One span: a named interval with a parent and a request id.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // spans of one request share it (0 = none)
  const char* name = "";
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
};

/// Per-name aggregate derived from the spans: count, total time, and self
/// time (the span's duration minus the part its children cover).
struct SpanSummary {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Process-wide span recorder. Disabled by default: a ScopedSpan then
/// costs one relaxed load. Spans are kept in per-thread buffers in memory
/// and only written out by Dump at the end of the run.
class Tracer {
 public:
  static Tracer& Get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void Enable(bool on) { on_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& s);

  /// All spans recorded so far (any thread).
  std::vector<Span> Collect();

  /// Per-name summaries, self time computed from parent links.
  static std::map<std::string, SpanSummary> Summarize(
      const std::vector<Span>& spans);
  /// Writes spans as CSV (id,parent,req,name,t0_ns,t1_ns); false on error.
  static bool Dump(const std::vector<Span>& spans, const std::string& path);

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* Local();

  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// RAII span. `parent` 0 means "the innermost open span on this thread".
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t req = 0, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool on_;
  uint64_t saved_open_ = 0;
};

int64_t NowNs();

}  // namespace ccbench

#endif  // CCBENCH_COMMON_H_
