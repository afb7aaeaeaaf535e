#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "ccidx/simd/simd.h"

namespace ccbench {

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  return (*v)[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  std::lock_guard lock(mu_);
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Outcome::Fail(const std::string& what) {
  std::lock_guard lock(mu_);
  ++errors_total_;
  if (errors_.size() < 10) errors_.push_back(what);
}

void Outcome::Note(const std::string& key, double value) {
  std::lock_guard lock(mu_);
  notes_.emplace_back(key, value);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string HostJson(const HostRecord& h) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %u, \"cpu\": \"%s\", \"simd\": \"%s\", \"backend\": "
      "\"%s\", \"read_latency_us\": %u, \"wal_storage\": \"%s\", "
      "\"flush_policy\": \"%s\"}",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      ccidx::simd::LevelName(ccidx::simd::ActiveLevel()), h.backend.c_str(),
      h.read_latency_us, h.wal_storage.c_str(), h.flush_policy.c_str());
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buf = std::make_unique<Buffer>();
    local = buf.get();
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(buf));
  }
  return local;
}

void Tracer::Record(const Span& s) { Local()->spans.push_back(s); }

std::vector<Span> Tracer::Collect() {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::map<std::string, SpanSummary> Tracer::Summarize(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, SpanSummary> out;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    SpanSummary& sum = out[s.name];
    const int64_t dur = s.t1_ns - s.t0_ns;
    // Covered part: union of the children's intervals clipped to the span
    // (children may run in parallel on other threads).
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      iv.clear();
      for (size_t c : it->second) {
        int64_t a = std::max(spans[c].t0_ns, s.t0_ns);
        int64_t b = std::min(spans[c].t1_ns, s.t1_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = 0, cur_b = -1;
      for (auto [a, b] : iv) {
        if (cur_b < a) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    sum.count++;
    sum.total_us += dur / 1e3;
    sum.self_us += (dur - covered) / 1e3;
  }
  return out;
}

bool Tracer::Dump(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,req,name,t0_ns,t1_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name,
                 static_cast<long long>(s.t0_ns),
                 static_cast<long long>(s.t1_ns));
  }
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t g_open_span = 0;
}  // namespace

ScopedSpan::ScopedSpan(const char* name, uint64_t req, uint64_t parent)
    : on_(Tracer::Get().on()) {
  if (!on_) return;
  span_.id = Tracer::Get().NewId();
  span_.parent = parent != 0 ? parent : g_open_span;
  span_.req = req;
  span_.name = name;
  saved_open_ = g_open_span;
  g_open_span = span_.id;
  span_.t0_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.t1_ns = NowNs();
  g_open_span = saved_open_;
  Tracer::Get().Record(span_);
}

}  // namespace ccbench
