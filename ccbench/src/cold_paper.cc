// cold-paper: one in-process client issuing the paper's query shapes
// (metablock diagonal corners, 3-sided, generalized-constraint ranges,
// class extents on both class indexes, B+-tree ranges) against data at
// least 8x the pager pool, on the mem backend with a fixed injected read
// latency. The device, the pager's miss / eviction / readahead paths and
// each structure's descent I/O do the work; serve, the executors and
// writes are absent. With one client, device reads per query repeat from
// run to run and are checked against the paper's bounds.

#include <algorithm>
#include <cmath>
#include <optional>

#include "ccidx/bptree/bptree.h"
#include "ccidx/classes/hierarchy.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/constraint/generalized_index.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/query/sink.h"
#include "harness.h"
#include "reference.h"
#include "workloads.h"

namespace ccbench {

using ccidx::BtEntry;
using ccidx::Point;

namespace {

constexpr uint32_t kB = 64;
constexpr ccidx::Coord kDom = 1ll << 24;
constexpr size_t kPoints = size_t{1} << 16;   // metablock, 3-sided, B+-tree
constexpr size_t kTuples = size_t{1} << 13;   // generalized-constraint tuples
constexpr size_t kObjects = size_t{1} << 15;  // per class index
constexpr uint32_t kClasses = 64;
constexpr uint32_t kPoolFrames = 1024;
constexpr uint32_t kReadLatencyUs = 20;
constexpr ccidx::Coord kStabLen = 102400;   // diagonal points: y - x
constexpr ccidx::Coord kTupleLen = 1 << 16;  // constraint tuples: hi - lo

// Paper-bound constants. A query may read at most
//   kReadSlack * (levels + t/B)
// pages, where levels is the family's search term (log_B n, plus log2 B
// for the 3-sided and Theorem 4.7 structures, times log2 c for the
// Theorem 2.6 class index) and t the records it had to report. The slack
// covers the constant factors of each structure (control + data pages per
// level, TS/corner structures) and speculative sibling reads (at most the
// speculation budget per descent level).
constexpr double kReadSlack = 8;  // the highest seen is 3.7
// Each structure may hold at most kSpaceSlack * n/B live pages (times
// log2 c for the class indexes, whose objects are replicated). The
// metablock and 3-sided trees keep every point in several blockings plus
// corner / TS structures: about 9 and 13 pages per n/B here.
constexpr double kSpaceSlack = 16;

enum Fam : int {
  kMetablock = 0,
  kThreeSided,
  kBtree,
  kConstraint,
  kSimple,
  kRake,
  kFamilies
};
const char* const kFamName[kFamilies] = {
    "core.metablock", "core.three_sided", "bptree.range",
    "constraint.range", "classes.simple", "classes.rake"};

struct ColdQuery {
  Fam fam;
  Mode mode;
  uint32_t k;
  int64_t a, b, c;  // family operands
};

struct ColdAnswer {
  std::vector<Rec> records;
  uint64_t count = 0;
  uint64_t device_reads = 0;
};

double LogB(double n) { return std::log(std::max(n, 2.0)) / std::log(kB); }

struct ColdTables {
  std::unique_ptr<ccidx::BlockDevice> device;
  std::unique_ptr<ccidx::Pager> pager;
  std::optional<ccidx::MetablockTree> metablock;
  std::optional<ccidx::ThreeSidedTree> three_sided;
  std::optional<ccidx::BPlusTree> btree;
  std::optional<ccidx::GeneralizedIndex> constraint;
  ccidx::ClassHierarchy hierarchy;
  std::optional<ccidx::SimpleClassIndex> simple;
  std::optional<ccidx::RakeContractIndex> rake;

  Forest forest;
  std::unique_ptr<StabRef> diag_ref;
  std::unique_ptr<ThreeSidedRef> plane_ref;
  std::unique_ptr<KeyRangeRef> key_ref;
  std::unique_ptr<IntersectRef> tuple_ref;
  std::unique_ptr<ClassRef> class_ref;

  double build_s[kFamilies] = {};
  uint64_t pages[kFamilies] = {};
  uint64_t records[kFamilies] = {};
  uint64_t build_writes = 0;  // device writes of all the builds
};

template <typename T, typename Conv, typename RunFn>
ccidx::Status RunMode(const ColdQuery& q, ColdAnswer* ans, Conv conv,
                      RunFn run) {
  return RunSinkMode<T>(q.mode, q.k, &ans->records, &ans->count, conv, run);
}

ccidx::Status RunCold(ColdTables* t, const ColdQuery& q, ColdAnswer* ans) {
  auto point = [](const Point& p) { return MakeRec(p.x, p.y, p.id); };
  auto entry = [](const BtEntry& e) {
    return MakeRec(e.key, static_cast<int64_t>(e.value), e.aux);
  };
  auto id = [](const uint64_t& v) { return Rec{v, 0, 0}; };
  switch (q.fam) {
    case kMetablock:
      return RunMode<Point>(q, ans, point, [&](ccidx::ResultSink<Point>* s) {
        return t->metablock->Query(ccidx::DiagonalQuery{q.a}, s);
      });
    case kThreeSided:
      return RunMode<Point>(q, ans, point, [&](ccidx::ResultSink<Point>* s) {
        return t->three_sided->Query(ccidx::ThreeSidedQuery{q.a, q.b, q.c},
                                     s);
      });
    case kBtree:
      return RunMode<BtEntry>(q, ans, entry,
                              [&](ccidx::ResultSink<BtEntry>* s) {
                                return t->btree->RangeScan(q.a, q.b, s);
                              });
    case kConstraint:
      return RunMode<uint64_t>(q, ans, id, [&](ccidx::ResultSink<uint64_t>* s) {
        return t->constraint->RangeQueryIds(q.a, q.b, s);
      });
    case kSimple:
      return RunMode<uint64_t>(q, ans, id, [&](ccidx::ResultSink<uint64_t>* s) {
        return t->simple->Query(static_cast<uint32_t>(q.c), q.a, q.b, s);
      });
    case kRake:
      return RunMode<uint64_t>(q, ans, id, [&](ccidx::ResultSink<uint64_t>* s) {
        return t->rake->Query(static_cast<uint32_t>(q.c), q.a, q.b, s);
      });
    default:
      return ccidx::Status::InvalidArgument("family");
  }
}

// Checks the answer and, for the paper's bound, returns the true output
// size the family was charged for (t, or k / 1 for early-stop modes).
std::string CheckCold(const ColdTables& t, const ColdQuery& q,
                      const ColdAnswer& a, uint64_t* charged) {
  uint64_t truth = 0;
  std::string why;
  switch (q.fam) {
    case kMetablock:
      truth = t.diag_ref->Count(q.a);
      why = CheckAnswer(*t.diag_ref, q.a, q.mode, q.k, a.records, a.count);
      break;
    case kThreeSided: {
      ThreeSidedQ tq{q.a, q.b, q.c};
      truth = t.plane_ref->Count(tq);
      why = CheckAnswer(*t.plane_ref, tq, q.mode, q.k, a.records, a.count);
      break;
    }
    case kBtree: {
      KeyRangeQ kq{q.a, q.b};
      truth = t.key_ref->Count(kq);
      why = CheckAnswer(*t.key_ref, kq, q.mode, q.k, a.records, a.count);
      break;
    }
    case kConstraint: {
      IntersectQ iq{q.a, q.b};
      truth = t.tuple_ref->Count(iq);
      why = CheckAnswer(*t.tuple_ref, iq, q.mode, q.k, a.records, a.count);
      break;
    }
    case kSimple:
    case kRake: {
      ClassQ cq{static_cast<uint32_t>(q.c), q.a, q.b};
      truth = t.class_ref->Count(cq);
      why = CheckAnswer(*t.class_ref, cq, q.mode, q.k, a.records, a.count);
      break;
    }
    default:
      return "family";
  }
  switch (q.mode) {
    case Mode::kRecords:
    case Mode::kCount:
      *charged = truth;
      break;
    case Mode::kExists:
      *charged = std::min<uint64_t>(truth, 1);
      break;
    case Mode::kLimit:
      *charged = std::min<uint64_t>(truth, q.k);
      break;
  }
  return why;
}

// The family's search term (pages per query before output).
double SearchTerm(Fam fam, double n) {
  switch (fam) {
    case kThreeSided:
    case kRake:
      return LogB(n) + std::log2(kB);
    case kSimple:
      return std::log2(kClasses) * LogB(n);
    default:
      return LogB(n);
  }
}

std::string BuildCold(uint64_t seed, ColdTables* t, double* gen_s) {
  auto g0 = Clock::now();
  Rng rng(seed * 2654435761u + 3);
  std::vector<Point> diag, plane;
  std::vector<BtEntry> keys;
  for (size_t i = 0; i < kPoints; ++i) {
    ccidx::Coord x = rng.Between(0, kDom - 1);
    diag.push_back({x, x + rng.Between(0, kStabLen), i});
  }
  for (size_t i = 0; i < kPoints; ++i) {
    plane.push_back({rng.Between(0, kDom - 1), rng.Between(0, kDom - 1), i});
  }
  const int64_t stride = kDom / static_cast<int64_t>(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    keys.push_back({static_cast<int64_t>(i) * stride +
                        rng.Between(0, stride - 1),
                    i, static_cast<int64_t>(rng.Below(1u << 30))});
  }
  std::vector<ccidx::GeneralizedTuple> tuples;
  std::vector<Rec> spans;
  for (size_t i = 0; i < kTuples; ++i) {
    ccidx::Coord lo = rng.Between(0, kDom - 1);
    ccidx::Coord hi = lo + rng.Between(0, kTupleLen);
    ccidx::GeneralizedTuple tuple(i, 2);
    ccidx::Coord y = rng.Between(0, kDom - 1);
    if (!tuple.AddRange(0, lo, hi).ok() ||
        !tuple.AddRange(1, y, y + rng.Between(0, kTupleLen)).ok()) {
      return "tuple construction";
    }
    tuples.push_back(std::move(tuple));
    spans.push_back(MakeRec(lo, hi, i));
  }
  // The hierarchy's shape sets the class indexes' replication (log2 c
  // copies at most), so it is fixed; the objects vary with the seed.
  Rng shape(2026);
  t->forest.parent.assign(kClasses, -1);
  for (uint32_t c = 1; c < kClasses; ++c) {
    t->forest.parent[c] = static_cast<int32_t>(shape.Below(c));
  }
  t->forest.Number();
  std::vector<ccidx::Object> objects;
  std::vector<Rec> objs;
  for (size_t i = 0; i < kObjects; ++i) {
    ccidx::Object o{i, static_cast<uint32_t>(rng.Below(kClasses)),
                    rng.Between(0, kDom - 1)};
    objects.push_back(o);
    objs.push_back({o.id, o.class_id, static_cast<uint64_t>(o.attr)});
  }
  *gen_s = SecondsBetween(g0, Clock::now());

  // References (benchmark code, outside the program).
  std::vector<Rec> recs;
  for (const Point& p : diag) recs.push_back(MakeRec(p.x, p.y, p.id));
  t->diag_ref = std::make_unique<StabRef>(std::move(recs));
  recs.clear();
  for (const Point& p : plane) recs.push_back(MakeRec(p.x, p.y, p.id));
  t->plane_ref = std::make_unique<ThreeSidedRef>(std::move(recs));
  recs.clear();
  for (const BtEntry& e : keys) {
    recs.push_back(MakeRec(e.key, static_cast<int64_t>(e.value), e.aux));
  }
  t->key_ref = std::make_unique<KeyRangeRef>(std::move(recs));
  t->tuple_ref = std::make_unique<IntersectRef>(std::move(spans));
  t->class_ref = std::make_unique<ClassRef>(&t->forest, std::move(objs));

  // The program's tables, one after another, each timed and measured.
  ccidx::BlockDeviceOptions dev_opts;
  dev_opts.backend = "mem";
  dev_opts.read_latency_us = kReadLatencyUs;
  t->device = std::make_unique<ccidx::BlockDevice>(
      ccidx::PageSizeForBranching(kB), dev_opts);
  t->pager = std::make_unique<ccidx::Pager>(t->device.get(), kPoolFrames);
  ccidx::Pager* pager = t->pager.get();
  for (uint32_t c = 0; c < kClasses; ++c) {
    auto r = t->hierarchy.AddClass(
        "c" + std::to_string(c),
        t->forest.parent[c] < 0 ? ccidx::kNoClass
                                : static_cast<uint32_t>(t->forest.parent[c]));
    if (!r.ok() || *r != c) return "hierarchy";
  }
  if (!t->hierarchy.Freeze().ok()) return "hierarchy freeze";

  auto timed = [&](Fam fam, size_t n, auto&& build) -> std::string {
    const uint64_t live0 = t->device->live_pages();
    auto t0 = Clock::now();
    std::string err;
    {
      ScopedSpan span("build.family");
      err = build();
    }
    if (!err.empty()) return err;
    // Make the structure's pages durable on the device before measuring
    // its footprint (the pool is write-back).
    if (!pager->Flush().ok()) return "flush";
    t->build_s[fam] = SecondsBetween(t0, Clock::now());
    t->pages[fam] = t->device->live_pages() - live0;
    t->records[fam] = n;
    return "";
  };
  const uint64_t writes0 = t->device->stats().device_writes;
  std::string err;
  err = timed(kMetablock, kPoints, [&]() -> std::string {
    auto r = ccidx::MetablockTree::Build(pager, std::span<const Point>(diag));
    if (!r.ok()) return r.status().ToString();
    t->metablock.emplace(std::move(*r));
    return "";
  });
  if (!err.empty()) return "metablock: " + err;
  err = timed(kThreeSided, kPoints, [&]() -> std::string {
    auto r = ccidx::ThreeSidedTree::Build(pager, std::span<const Point>(plane));
    if (!r.ok()) return r.status().ToString();
    t->three_sided.emplace(std::move(*r));
    return "";
  });
  if (!err.empty()) return "3-sided: " + err;
  err = timed(kBtree, kPoints, [&]() -> std::string {
    std::vector<BtEntry> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    auto r = ccidx::BPlusTree::BulkLoad(pager, std::span<const BtEntry>(sorted));
    if (!r.ok()) return r.status().ToString();
    t->btree.emplace(std::move(*r));
    return "";
  });
  if (!err.empty()) return "bptree: " + err;
  err = timed(kConstraint, kTuples, [&]() -> std::string {
    t->constraint.emplace(pager, 2, 0);
    for (const ccidx::GeneralizedTuple& tuple : tuples) {
      ccidx::Status s = t->constraint->Insert(tuple);
      if (!s.ok()) return s.ToString();
    }
    return "";
  });
  if (!err.empty()) return "constraint: " + err;
  err = timed(kSimple, kObjects, [&]() -> std::string {
    auto r = ccidx::SimpleClassIndex::Build(
        pager, &t->hierarchy, std::span<const ccidx::Object>(objects));
    if (!r.ok()) return r.status().ToString();
    t->simple.emplace(std::move(*r));
    return "";
  });
  if (!err.empty()) return "simple class: " + err;
  err = timed(kRake, kObjects, [&]() -> std::string {
    auto r = ccidx::RakeContractIndex::Build(
        pager, &t->hierarchy, std::span<const ccidx::Object>(objects));
    if (!r.ok()) return r.status().ToString();
    t->rake.emplace(std::move(*r));
    return "";
  });
  if (!err.empty()) return "rake: " + err;
  t->build_writes = t->device->stats().device_writes - writes0;
  return "";
}

ColdQuery MakeColdQuery(Rng* rng, const ColdTables& t, uint64_t seq) {
  ColdQuery q{};
  q.fam = static_cast<Fam>(seq % kFamilies);
  const uint64_t m = rng->Below(100);
  q.mode = m < 55   ? Mode::kRecords
           : m < 70 ? Mode::kCount
           : m < 80 ? Mode::kExists
                    : Mode::kLimit;
  q.k = static_cast<uint32_t>(rng->Between(1, 32));
  // Target output: 0 to a few hundred records.
  const double want = static_cast<double>(rng->Between(0, 300));
  switch (q.fam) {
    case kMetablock:
      q.a = rng->Between(0, kDom - 1);
      break;
    case kThreeSided: {
      const double slab = 2048;  // points in the x-slab
      int64_t width = static_cast<int64_t>(slab * kDom / kPoints);
      q.a = rng->Between(0, kDom - 1 - width);
      q.b = q.a + width;
      q.c = static_cast<int64_t>(kDom * (1.0 - want / slab));
      break;
    }
    case kBtree: {
      int64_t width = static_cast<int64_t>(want * kDom / kPoints);
      q.a = rng->Between(0, kDom - 1 - width);
      q.b = q.a + width;
      break;
    }
    case kConstraint: {
      int64_t width = static_cast<int64_t>(want * kDom / kTuples);
      q.a = rng->Between(0, kDom - 1 - width);
      q.b = q.a + width;
      break;
    }
    case kSimple:
    case kRake: {
      q.c = static_cast<int64_t>(rng->Below(kClasses));
      const double extent = std::max<double>(
          1, t.class_ref->ExtentSize(static_cast<uint32_t>(q.c)));
      int64_t width = static_cast<int64_t>(
          std::min<double>(kDom - 1, want * kDom / extent));
      q.a = rng->Between(0, kDom - 1 - width);
      q.b = q.a + width;
      break;
    }
    default:
      break;
  }
  return q;
}

struct FamTally {
  uint64_t queries = 0, reads = 0;
  double us = 0;
};

struct ColdPhase {
  double seconds = 0;
  uint64_t queries = 0, failed = 0;
  std::vector<double> lat_us;
  FamTally fam[kFamilies];
  ccidx::IoStats io;
  uint64_t prefetches_issued = 0, prefetches_revived = 0;
  double max_read_ratio = 0;  // max over queries of reads / bound
};

// Runs whole rounds of the six families until the deadline.
ColdPhase RunPhase(ColdTables* t, Rng* rng, uint64_t* seq, double seconds,
                   RunContext* ctx) {
  ColdPhase ph;
  ccidx::Pager* pager = t->pager.get();
  const ccidx::IoStats io0 = pager->CombinedStats();
  const uint64_t pi0 = pager->prefetches_issued();
  const uint64_t pr0 = pager->prefetches_revived();
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline || *seq % kFamilies != 0) {
    ColdQuery q = MakeColdQuery(rng, *t, *seq);
    ++*seq;
    ColdAnswer ans;
    const uint64_t r0 = pager->CombinedStats().device_reads;
    auto q0 = Clock::now();
    ccidx::Status s;
    {
      ScopedSpan span(QuerySpanName(kFamName[q.fam]));
      s = RunCold(t, q, &ans);
    }
    const double us = MicrosBetween(q0, Clock::now());
    // Staged readahead lands before the next query, so each query's
    // device reads are its own (outside the timed window).
    pager->DrainPrefetch();
    ans.device_reads = pager->CombinedStats().device_reads - r0;
    ++ph.queries;
    if (!s.ok()) {
      ++ph.failed;
      ctx->out.Fail(std::string(kFamName[q.fam]) + ": " + s.ToString());
      continue;
    }
    ph.lat_us.push_back(us);
    FamTally& f = ph.fam[q.fam];
    f.queries++;
    f.reads += ans.device_reads;
    f.us += us;
    uint64_t charged = 0;
    std::string why = CheckCold(*t, q, ans, &charged);
    if (!why.empty()) {
      ctx->out.Fail(std::string(kFamName[q.fam]) + ": " + why);
      continue;
    }
    const double n = static_cast<double>(t->records[q.fam]);
    const double bound = SearchTerm(q.fam, n) + charged / double{kB} + 1;
    ph.max_read_ratio = std::max(ph.max_read_ratio, ans.device_reads / bound);
    if (ans.device_reads > kReadSlack * bound) {
      ctx->out.Fail(std::string(kFamName[q.fam]) + ": " +
                    std::to_string(ans.device_reads) +
                    " device reads exceed the paper bound");
    }
  }
  ph.seconds = SecondsBetween(t0, Clock::now());
  ph.io = pager->CombinedStats() - io0;
  ph.prefetches_issued = pager->prefetches_issued() - pi0;
  ph.prefetches_revived = pager->prefetches_revived() - pr0;
  return ph;
}

}  // namespace

void RunColdPaper(RunContext* ctx) {
  Outcome& out = ctx->out;
  ctx->host.read_latency_us = kReadLatencyUs;
  ColdTables t;
  double gen_s = 0;
  std::string err = BuildCold(ctx->opt.seed, &t, &gen_s);
  ctx->excluded_s += gen_s;
  if (!err.empty()) {
    out.Fail("build: " + err);
    return;
  }
  uint64_t total_pages = 0, total_records = 0;
  for (int f = 0; f < kFamilies; ++f) {
    total_pages += t.pages[f];
    total_records += t.records[f];
    double allowed = kSpaceSlack * t.records[f] / kB;
    if (f == kSimple || f == kRake) allowed *= std::log2(kClasses);
    if (t.pages[f] > allowed) {
      out.Fail(std::string(kFamName[f]) + ": " + std::to_string(t.pages[f]) +
               " live pages exceed the space bound");
    }
  }
  if (t.device->live_pages() < 8ull * kPoolFrames) {
    out.Fail("data is smaller than 8x the pool");
  }
  // Cold start: nothing of the data is resident when queries begin.
  if (!t.pager->DropCache().ok()) out.Fail("drop cache");
  const double setup_s = ctx->SetupSeconds();

  Rng rng(ctx->opt.seed * 40503 + 11);
  uint64_t seq = 0;
  const double total = ctx->opt.seconds;
  const double untraced = ctx->opt.trace ? total / 2 : total;
  ColdPhase a = RunPhase(&t, &rng, &seq, untraced, ctx);
  out.attempted += a.queries;
  out.failed += a.failed;
  const double qps = a.lat_us.size() / a.seconds;
  const double space = static_cast<double>(t.device->live_pages()) *
                       t.pager->page_size() / total_records;
  out.Note("query_samples", static_cast<double>(a.lat_us.size()));
  out.Note("max_reads_over_bound", a.max_read_ratio);
  out.Note("live_pages_over_pool",
           static_cast<double>(t.device->live_pages()) / kPoolFrames);
  if (!ctx->opt.trace) {
    out.Add("setup_s", setup_s, "s");
    out.Add("qps", qps, "req/s");
    out.Add("query_p50_us", P(a.lat_us, 0.50), "us");
    out.Add("query_p99_us", P(a.lat_us, 0.99), "us");
    out.Add("ops_s", qps, "ops/s");
    out.Add("space_bytes_per_record", space, "bytes");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }
  Tracer::Get().Enable(true);
  ColdPhase b = RunPhase(&t, &rng, &seq, total - untraced, ctx);
  Tracer::Get().Enable(false);
  out.attempted += b.queries;
  out.failed += b.failed;
  const double nq = static_cast<double>(std::max<uint64_t>(1, b.queries));
  const double qps_b = b.lat_us.size() / b.seconds;
  out.Add("trace.overhead_pct", 100.0 * (qps - qps_b) / qps, "%");
  out.Add("trace.query_samples", static_cast<double>(b.lat_us.size()),
          "count");
  out.Add("device_reads_per_query", b.io.device_reads / nq, "pages");
  for (int f = 0; f < kFamilies; ++f) {
    const FamTally& ft = b.fam[f];
    const double fq = static_cast<double>(std::max<uint64_t>(1, ft.queries));
    out.Add(std::string(kFamName[f]) + ".query_us", ft.us / fq, "us");
    out.Add(std::string(kFamName[f]) + ".device_reads_per_query",
            ft.reads / fq, "pages");
  }
  out.Add("pager.hit_ratio", HitRatio(b.io), "ratio");
  out.Add("pager.pins_per_query", b.io.pin_requests / nq, "count");
  out.Add("pager.read_batches_per_query", b.io.read_batches / nq, "count");
  out.Add("pager.prefetches_issued_per_query", b.prefetches_issued / nq,
          "count");
  out.Add("pager.prefetches_revived", static_cast<double>(b.prefetches_revived),
          "count");
  out.Add("device.reads_per_batch",
          b.io.read_batches > 0
              ? static_cast<double>(b.io.device_reads) / b.io.read_batches
              : 0,
          "pages");
  out.Add("device.live_pages", static_cast<double>(t.device->live_pages()),
          "pages");
  AddBuildMetrics(&out,
                  {{"build.metablock_s", t.build_s[kMetablock]},
                   {"build.three_sided_s", t.build_s[kThreeSided]},
                   {"build.bptree_s", t.build_s[kBtree]},
                   {"build.constraint_s", t.build_s[kConstraint]},
                   {"build.simple_class_s", t.build_s[kSimple]},
                   {"build.rake_s", t.build_s[kRake]}},
                  t.build_writes, total_records);
  FinishTrace(ctx);
}

}  // namespace ccbench
