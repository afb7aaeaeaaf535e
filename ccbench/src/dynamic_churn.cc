// dynamic-churn: one in-process client alternating update batches through
// UpdateExecutor (3 writers) and query batches through QueryExecutor, over
// the dynamized families: DynamicMetablockTree (the log method, with
// tombstones and purges committed by a MaintenanceThread), DynamicPst
// (scapegoat partial rebuilds) and DynamicIntervalIndex. Each update
// inserts one fresh record and deletes one live record, so sizes hold
// steady while merges, purges and rebuilds fire at their natural cadence.
// Warm pool, no WAL. Each query batch must match the model as of the last
// completed update batch.
//
// RakeContractIndex is not churned here: its updates running beside the
// MaintenanceThread's gateless rebuild of DynamicMetablockTree abort the
// process on a page-layout check (see CHANGES.md), so the workload would
// not run to its end. Its queries are measured by cold-paper.

#include <algorithm>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "ccidx/dynamic/adapters.h"
#include "ccidx/dynamic/maintenance.h"
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/pst/dynamic_pst.h"
#include "ccidx/query/executor.h"
#include "ccidx/query/update_executor.h"
#include "harness.h"
#include "reference.h"
#include "workloads.h"

namespace ccbench {

using ccidx::Interval;
using ccidx::Point;

namespace {

constexpr uint32_t kB = 64;
constexpr ccidx::Coord kDom = 1ll << 24;
// Small enough that a purge (after n/2 deletes) fires every second or two.
constexpr size_t kPerFamily = size_t{1} << 14;
constexpr ccidx::Coord kMaxLen = 1 << 17;  // stab records: y - x
constexpr uint32_t kPoolFrames = 1u << 16;
constexpr unsigned kWriters = 3;
constexpr unsigned kReaders = 4;
constexpr int kUpdatesPerBatch = 30;  // each one insert + one delete
constexpr int kQueriesPerBatch = 15;
constexpr int kFinalStabs = 256;
constexpr uint64_t kWarmupRounds = 200;

enum Fam : int { kDynMeta = 0, kPst, kInterval, kFamilies };
const char* const kUpdateSpan[kFamilies] = {"dynamic.update", "pst.update",
                                            "interval.update"};

/// A record of any family in wire form: {x, y, id} / {lo, hi, id}.
struct ChurnOp {
  Fam fam;
  bool insert;
  Rec rec;
};

struct ChurnQuery {
  Fam fam;
  Mode mode;
  uint32_t k;
  int64_t a, b, c;
};

struct ChurnAnswer {
  std::vector<Rec> records;
  uint64_t count = 0;
};

/// Live records of one family, for picking a random one to delete.
class LiveSet {
 public:
  void Add(const Rec& r) {
    pos_[Key(r)] = items_.size();
    items_.push_back(r);
  }
  void Remove(const Rec& r) {
    size_t i = pos_.at(Key(r));
    pos_[Key(items_.back())] = i;
    items_[i] = items_.back();
    items_.pop_back();
    pos_.erase(Key(r));
  }
  const Rec& Pick(Rng* rng) const { return items_[rng->Below(items_.size())]; }
  size_t size() const { return items_.size(); }

 private:
  static uint64_t Key(const Rec& r) { return r[2]; }  // unique per family
  std::vector<Rec> items_;
  std::unordered_map<uint64_t, size_t> pos_;
};

struct Churn {
  std::unique_ptr<ccidx::BlockDevice> device;
  std::unique_ptr<ccidx::Pager> pager;
  std::optional<ccidx::DynamicMetablockTree> dyn;
  std::optional<ccidx::DynamicPst> pst;
  std::optional<ccidx::DynamicIntervalIndex> interval;
  std::mutex interval_mu;  // DynamicIntervalIndex writes need outside sync

  PointModel dyn_model{kMaxLen};
  PointModel pst_model{kDom};
  PointModel interval_model{kMaxLen};
  LiveSet live[kFamilies];
  uint64_t next_id[kFamilies] = {};
  double build_s[kFamilies] = {};

  // Per-family update time, accumulated on the writers.
  std::atomic<uint64_t> update_ns[kFamilies] = {};
  std::atomic<uint64_t> update_n[kFamilies] = {};
};

Rec NewRecord(Fam fam, Rng* rng, uint64_t id) {
  switch (fam) {
    case kDynMeta:
    case kInterval: {
      int64_t x = rng->Between(0, kDom - 1);
      return MakeRec(x, x + rng->Between(0, kMaxLen), id);
    }
    default:
      return MakeRec(rng->Between(0, kDom - 1), rng->Between(0, kDom - 1), id);
  }
}

Point AsPoint(const Rec& r) { return {W0(r), W1(r), r[2]}; }
Interval AsInterval(const Rec& r) { return {W0(r), W1(r), r[2]}; }

ccidx::Status DeleteOp(Churn* c, Fam fam, const Rec& r) {
  bool found = false;
  ccidx::Status s;
  switch (fam) {
    case kDynMeta:
      s = c->dyn->Delete(AsPoint(r), &found);
      break;
    case kPst:
      s = c->pst->Delete(AsPoint(r), &found);
      break;
    default: {
      std::lock_guard lock(c->interval_mu);
      s = c->interval->Delete(AsInterval(r), &found);
      break;
    }
  }
  if (s.ok() && !found) return ccidx::Status::NotFound("delete missed");
  return s;
}

ccidx::Status ApplyOp(Churn* c, const ChurnOp& op) {
  const Rec& r = op.rec;
  if (!op.insert) return DeleteOp(c, op.fam, r);
  switch (op.fam) {
    case kDynMeta:
      return c->dyn->Insert(AsPoint(r));
    case kPst:
      return c->pst->Insert(AsPoint(r));
    default: {
      std::lock_guard lock(c->interval_mu);
      return c->interval->Insert(AsInterval(r));
    }
  }
}

void ApplyToModel(Churn* c, const ChurnOp& op) {
  const Rec& r = op.rec;
  if (op.insert) {
    c->live[op.fam].Add(r);
  } else {
    c->live[op.fam].Remove(r);
  }
  switch (op.fam) {
    case kDynMeta:
      op.insert ? c->dyn_model.Insert(r) : (void)c->dyn_model.Erase(r);
      break;
    case kPst:
      op.insert ? c->pst_model.Insert(r) : (void)c->pst_model.Erase(r);
      break;
    default:
      op.insert ? c->interval_model.Insert(r)
                : (void)c->interval_model.Erase(r);
      break;
  }
}

ChurnQuery MakeQuery(Rng* rng, int i) {
  ChurnQuery q{};
  q.fam = static_cast<Fam>(i % kFamilies);
  const uint64_t m = rng->Below(4);
  q.mode = m < 2 ? Mode::kRecords : m == 2 ? Mode::kCount : Mode::kLimit;
  q.k = static_cast<uint32_t>(rng->Between(1, 16));
  const double want = static_cast<double>(rng->Between(0, 200));
  switch (q.fam) {
    case kDynMeta:
    case kInterval:
      q.a = rng->Between(0, kDom - 1);
      break;
    default: {
      const double slab = 1024;
      int64_t width = static_cast<int64_t>(slab * kDom / kPerFamily);
      q.a = rng->Between(0, kDom - 1 - width);
      q.b = q.a + width;
      q.c = static_cast<int64_t>(kDom * (1.0 - want / slab));
      break;
    }
  }
  return q;
}

ccidx::Status RunQuery(Churn* c, const ChurnQuery& q, ChurnAnswer* ans) {
  auto point = [](const Point& p) { return MakeRec(p.x, p.y, p.id); };
  auto interval = [](const Interval& iv) {
    return MakeRec(iv.lo, iv.hi, iv.id);
  };
  switch (q.fam) {
    case kDynMeta:
      return RunSinkMode<Point>(q.mode, q.k, &ans->records, &ans->count, point,
                                [&](ccidx::ResultSink<Point>* s) {
                                  return c->dyn->Query(
                                      ccidx::DiagonalQuery{q.a}, s);
                                });
    case kPst:
      return RunSinkMode<Point>(
          q.mode, q.k, &ans->records, &ans->count, point,
          [&](ccidx::ResultSink<Point>* s) {
            return c->pst->Query(ccidx::ThreeSidedQuery{q.a, q.b, q.c}, s);
          });
    default:
      return RunSinkMode<Interval>(q.mode, q.k, &ans->records, &ans->count,
                                   interval,
                                   [&](ccidx::ResultSink<Interval>* s) {
                                     return c->interval->Stab(q.a, s);
                                   });
  }
}

std::string CheckQuery(const Churn& c, const ChurnQuery& q,
                       const ChurnAnswer& a) {
  switch (q.fam) {
    case kDynMeta:
      return CheckAnswer(c.dyn_model, q.a, q.mode, q.k, a.records, a.count);
    case kPst:
      return CheckAnswer(c.pst_model, ThreeSidedQ{q.a, q.b, q.c}, q.mode, q.k,
                         a.records, a.count);
    default:
      return CheckAnswer(c.interval_model, q.a, q.mode, q.k, a.records,
                         a.count);
  }
}

}  // namespace

void RunDynamicChurn(RunContext* ctx) {
  Outcome& out = ctx->out;
  Churn c;
  auto g0 = Clock::now();
  Rng rng(ctx->opt.seed * 48271 + 7);
  std::vector<Rec> initial[kFamilies];
  for (int f = 0; f < kFamilies; ++f) {
    for (size_t i = 0; i < kPerFamily; ++i) {
      initial[f].push_back(NewRecord(static_cast<Fam>(f), &rng, i));
      ApplyToModel(&c, {static_cast<Fam>(f), true, initial[f].back()});
    }
    c.next_id[f] = kPerFamily;
  }
  ctx->excluded_s += SecondsBetween(g0, Clock::now());

  c.device = std::make_unique<ccidx::BlockDevice>(
      ccidx::PageSizeForBranching(kB), ccidx::BlockDeviceOptions{});
  c.pager = std::make_unique<ccidx::Pager>(c.device.get(), kPoolFrames);
  ccidx::Pager* pager = c.pager.get();
  const uint64_t writes0 = c.device->stats().device_writes;
  std::string err;
  auto timed = [&](Fam f, auto&& build) {
    auto t0 = Clock::now();
    ScopedSpan span("build.family");
    ccidx::Status s = build();
    c.build_s[f] = SecondsBetween(t0, Clock::now());
    if (!s.ok() && err.empty()) err = s.ToString();
  };
  timed(kDynMeta, [&] {
    std::vector<Point> pts;
    for (const Rec& r : initial[kDynMeta]) pts.push_back(AsPoint(r));
    auto r = ccidx::DynamicMetablockTree::Build(pager, std::move(pts));
    if (r.ok()) c.dyn.emplace(std::move(*r));
    return r.status();
  });
  timed(kPst, [&] {
    std::vector<Point> pts;
    for (const Rec& r : initial[kPst]) pts.push_back(AsPoint(r));
    auto r = ccidx::DynamicPst::Build(pager, std::move(pts));
    if (r.ok()) c.pst.emplace(std::move(*r));
    return r.status();
  });
  timed(kInterval, [&] {
    std::vector<Interval> ivs;
    for (const Rec& r : initial[kInterval]) ivs.push_back(AsInterval(r));
    auto r = ccidx::DynamicIntervalIndex::Build(pager, std::move(ivs));
    if (r.ok()) c.interval.emplace(std::move(*r));
    return r.status();
  });
  if (!err.empty()) {
    out.Fail("build: " + err);
    return;
  }
  const uint64_t build_writes = c.device->stats().device_writes - writes0;

  ccidx::QueryExecutor qexec(kReaders);
  ccidx::UpdateExecutor uexec(kWriters);
  std::mutex job_mu;
  std::vector<double> job_ms;  // guarded by job_mu
  ccidx::MaintenanceThread maint(qexec.gate());
  c.dyn->SetPurgeHook([&] {
    auto job = maint.RebuildJob(&*c.dyn);
    maint.Schedule([&, job] {
      auto t0 = Clock::now();
      ScopedSpan span("maintenance.job");
      job();
      std::lock_guard lock(job_mu);
      job_ms.push_back(MicrosBetween(t0, Clock::now()) / 1e3);
    });
  });

  // One round: an update batch, then a query batch checked against the
  // model as of that update batch.
  Rng urng(ctx->opt.seed * 69621 + 3);
  Rng qrng(ctx->opt.seed * 16807 + 5);
  struct Phase {
    double seconds = 0;
    uint64_t rounds = 0, queries = 0, update_ops = 0, failed = 0;
    std::vector<double> update_us, query_us;
    double live_pages_sum = 0;  // sampled after every round
    ccidx::WaitHistogram writer_wait, reader_wait;
  };
  auto run_phase = [&](double seconds, uint64_t rounds_cap) {
    Phase ph;
    const ccidx::WaitHistogram w0 = qexec.gate()->writer_wait_histogram();
    const ccidx::WaitHistogram r0 = qexec.reader_gate_wait_histogram();
    auto t0 = Clock::now();
    auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    while (rounds_cap != 0 ? ph.rounds < rounds_cap : Clock::now() < deadline) {
      std::vector<ChurnOp> ops;
      for (int i = 0; i < kUpdatesPerBatch; ++i) {
        const Fam f = static_cast<Fam>(i % kFamilies);
        ops.push_back({f, true, NewRecord(f, &urng, c.next_id[f]++)});
        // A live record not already deleted in this batch.
        Rec victim;
        bool taken = true;
        while (taken) {
          victim = c.live[f].Pick(&urng);
          taken = std::any_of(ops.begin(), ops.end(), [&](const ChurnOp& o) {
            return !o.insert && o.fam == f && o.rec == victim;
          });
        }
        ops.push_back({f, false, victim});
      }
      auto u0 = Clock::now();
      ccidx::UpdateReport urep;
      {
        ScopedSpan span("update.batch");
        const uint64_t parent = span.id();
        urep = uexec.RunUpdates(
            std::span<const ChurnOp>(ops),
            [](const ChurnOp& o) {
              return static_cast<int64_t>((uint64_t{1} + o.fam) << 40 ^
                                          o.rec[2]);
            },
            [&](const ChurnOp& o, size_t, unsigned) {
              auto a = Clock::now();
              ccidx::Status s;
              {
                ScopedSpan op_span(kUpdateSpan[o.fam], 0, parent);
                s = ApplyOp(&c, o);
              }
              c.update_ns[o.fam].fetch_add(
                  static_cast<uint64_t>(MicrosBetween(a, Clock::now()) * 1e3));
              c.update_n[o.fam].fetch_add(1);
              return s;
            },
            qexec.gate(), pager);
      }
      ph.update_us.push_back(MicrosBetween(u0, Clock::now()));
      for (size_t i = 0; i < ops.size(); ++i) {
        if (!urep.statuses[i].ok()) {
          ++ph.failed;
          out.Fail("update: " + urep.statuses[i].ToString());
          continue;
        }
        ApplyToModel(&c, ops[i]);
        ++ph.update_ops;
      }

      std::vector<ChurnQuery> qs;
      for (int i = 0; i < kQueriesPerBatch; ++i) qs.push_back(MakeQuery(&qrng, i));
      std::vector<ChurnAnswer> answers(qs.size());
      auto q0 = Clock::now();
      ccidx::BatchReport qrep;
      {
        ScopedSpan span("query.run_batch");
        qrep = qexec.RunBatch(
            std::span<const ChurnQuery>(qs),
            [&](const ChurnQuery& q, size_t i, unsigned) {
              return RunQuery(&c, q, &answers[i]);
            },
            pager);
      }
      ph.query_us.push_back(MicrosBetween(q0, Clock::now()));
      for (size_t i = 0; i < qs.size(); ++i) {
        ++ph.queries;
        if (!qrep.statuses[i].ok()) {
          ++ph.failed;
          out.Fail("query: " + qrep.statuses[i].ToString());
          continue;
        }
        std::string why = CheckQuery(c, qs[i], answers[i]);
        if (!why.empty()) out.Fail(std::string("query after updates: ") + why);
      }
      ++ph.rounds;
      ph.live_pages_sum += static_cast<double>(c.device->live_pages());
    }
    ph.seconds = SecondsBetween(t0, Clock::now());
    ph.writer_wait = Minus(qexec.gate()->writer_wait_histogram(), w0);
    ph.reader_wait = Minus(qexec.reader_gate_wait_histogram(), r0);
    return ph;
  };

  run_phase(0, kWarmupRounds);  // checked like the rest
  const double setup_s = ctx->SetupSeconds();

  const double total = ctx->opt.seconds;
  const double untraced = ctx->opt.trace ? total / 2 : total;
  Phase a = run_phase(untraced, 0);
  // Attempted: every update op and every query of the measured phase(s).
  out.attempted += a.update_ops + a.queries + a.failed;
  out.failed += a.failed;
  const double qps = a.queries / a.seconds;
  const double ops_s = (a.queries + a.update_ops) / a.seconds;
  out.Note("rounds", static_cast<double>(a.rounds));
  out.Note("query_batch_samples", static_cast<double>(a.query_us.size()));

  auto finish = [&] {
    maint.Drain();
    // Final full-extent answers against the model.
    ChurnQuery all_pst{kPst, Mode::kRecords, 0, 0, kDom, ccidx::kCoordMin};
    ChurnAnswer ans;
    ctx->Check(RunQuery(&c, all_pst, &ans).ok() ? "" : "query failed",
               "final 3-sided");
    ctx->Check(CheckQuery(c, all_pst, ans), "final 3-sided");
    for (int i = 0; i < kFinalStabs; ++i) {
      const int64_t at = kDom / kFinalStabs * i;
      for (Fam f : {kDynMeta, kInterval}) {
        ChurnQuery q{f, Mode::kRecords, 0, at, 0, 0};
        ChurnAnswer r;
        ctx->Check(RunQuery(&c, q, &r).ok() ? "" : "query failed",
                   "final stab");
        ctx->Check(CheckQuery(c, q, r), "final stab");
      }
    }
  };

  // Space averaged over the measured rounds: tombstones pile up and purge
  // in a sawtooth, so the end-of-run value depends on where the run stops.
  uint64_t live_records = 0;
  for (const LiveSet& s : c.live) live_records += s.size();
  const double space = a.live_pages_sum / a.rounds * pager->page_size() /
                       live_records;
  if (!ctx->opt.trace) {
    finish();
    out.Add("setup_s", setup_s, "s");
    out.Add("qps", qps, "req/s");
    out.Add("query_p50_us", P(a.query_us, 0.50), "us");
    out.Add("query_p99_us", P(a.query_us, 0.99), "us");
    out.Add("ops_s", ops_s, "ops/s");
    out.Add("space_bytes_per_record", space, "bytes");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    out.Note("update_ops_s", a.update_ops / a.seconds);
    out.Note("update_p50_us", P(a.update_us, 0.50));
    out.Note("update_p99_us", P(a.update_us, 0.99));
    out.Note("rebuilds_committed",
             static_cast<double>(maint.rebuilds_committed()));
    out.Note("rebuilds_aborted", static_cast<double>(maint.rebuilds_aborted()));
    out.Note("tombstones",
             static_cast<double>(c.dyn->outstanding_tombstones()));
    return;
  }

  for (int f = 0; f < kFamilies; ++f) {
    c.update_ns[f] = 0;
    c.update_n[f] = 0;
  }
  const uint64_t rc0 = maint.rebuilds_committed();
  const uint64_t ra0 = maint.rebuilds_aborted();
  size_t jobs0;
  {
    std::lock_guard lock(job_mu);
    jobs0 = job_ms.size();
  }
  Tracer::Get().Enable(true);
  Phase b = run_phase(total - untraced, 0);
  maint.Drain();
  Tracer::Get().Enable(false);
  out.attempted += b.update_ops + b.queries + b.failed;
  out.failed += b.failed;
  finish();
  const double ops_b = (b.queries + b.update_ops) / b.seconds;
  out.Add("trace.overhead_pct", 100.0 * (ops_s - ops_b) / ops_s, "%");
  out.Add("trace.query_samples", static_cast<double>(b.query_us.size()),
          "count");
  out.Add("trace.update_samples", static_cast<double>(b.update_us.size()),
          "count");
  out.Add("update_ops_s", b.update_ops / b.seconds, "ops/s");
  out.Add("update_p50_us", P(b.update_us, 0.50), "us");
  out.Add("update_p99_us", P(b.update_us, 0.99), "us");
  out.Add("query.writer_gate_wait_p99_us",
          b.writer_wait.PercentileNs(99) / 1e3, "us");
  out.Add("query.reader_gate_wait_p99_us",
          b.reader_wait.PercentileNs(99) / 1e3, "us");
  const char* const names[kFamilies] = {"dynamic.update_us", "pst.update_us",
                                        "interval.update_us"};
  for (int f = 0; f < kFamilies; ++f) {
    const double n = static_cast<double>(std::max<uint64_t>(1, c.update_n[f]));
    out.Add(names[f], c.update_ns[f] / 1e3 / n, "us");
  }
  const uint64_t committed = maint.rebuilds_committed() - rc0;
  const uint64_t aborted = maint.rebuilds_aborted() - ra0;
  out.Add("maintenance.rebuilds_committed", static_cast<double>(committed),
          "count");
  out.Add("maintenance.rebuild_commit_ratio",
          committed + aborted > 0
              ? static_cast<double>(committed) / (committed + aborted)
              : 0,
          "ratio");
  {
    std::lock_guard lock(job_mu);
    std::vector<double> mine(job_ms.begin() + static_cast<long>(jobs0),
                             job_ms.end());
    out.Add("maintenance.job_ms", P(mine, 0.5), "ms");
  }
  out.Add("device.live_pages", static_cast<double>(c.device->live_pages()),
          "pages");
  AddBuildMetrics(&out,
                  {{"build.dynamic_metablock_s", c.build_s[kDynMeta]},
                   {"build.dynamic_pst_s", c.build_s[kPst]},
                   {"build.dynamic_interval_s", c.build_s[kInterval]}},
                  build_writes, kFamilies * kPerFamily);
  FinishTrace(ctx);
}

}  // namespace ccbench
