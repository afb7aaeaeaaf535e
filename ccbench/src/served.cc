#include "served.h"

#include <algorithm>

#include "ccidx/query/sink.h"

namespace ccbench {

using ccidx::BtEntry;
using ccidx::Interval;
using ccidx::Point;
using ccidx::serve::Request;
using ccidx::serve::RequestType;
using ccidx::serve::Response;
using ccidx::serve::ResultMode;
using ccidx::serve::WireStatus;

namespace {

// Expected stab output is n * (max_len / 2) / kDomain; sized so a stab
// reports about 200 records at n = 2^17 (about 100 at 2^16).
ccidx::Coord StabMaxLen(size_t n) {
  (void)n;
  return 51200;
}

}  // namespace

ServedInputs GenerateServedInputs(uint64_t seed, size_t n) {
  ServedInputs in;
  in.max_len = StabMaxLen(n);
  Rng rng(seed * 1000003 + 17);
  in.diag.reserve(n);
  in.intervals.reserve(n);
  in.plane.reserve(n);
  in.keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ccidx::Coord x = rng.Between(0, kDomain - 1);
    in.diag.push_back({x, x + rng.Between(0, in.max_len), i});
  }
  for (size_t i = 0; i < n; ++i) {
    ccidx::Coord lo = rng.Between(0, kDomain - 1);
    in.intervals.push_back({lo, lo + rng.Between(0, in.max_len), i});
  }
  for (size_t i = 0; i < n; ++i) {
    in.plane.push_back(
        {rng.Between(0, kDomain - 1), rng.Between(0, kDomain - 1), i});
  }
  // Distinct keys: one per stride, at a random offset inside it.
  const int64_t stride = kDomain / static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t key = static_cast<int64_t>(i) * stride + rng.Between(0, stride - 1);
    in.keys.push_back({key, i, static_cast<int64_t>(rng.Below(1u << 30))});
  }
  return in;
}

std::string ServedTables::Build(const ServedInputs& in, uint32_t pool_frames,
                                std::unique_ptr<ServedTables>* out) {
  auto t = std::make_unique<ServedTables>();
  t->n = in.diag.size();
  t->device = std::make_unique<ccidx::BlockDevice>(
      ccidx::PageSizeForBranching(kBranching), ccidx::BlockDeviceOptions{});
  t->pager = std::make_unique<ccidx::Pager>(t->device.get(), pool_frames);
  ccidx::Pager* pager = t->pager.get();
  const uint64_t writes0 = pager->CombinedStats().device_writes;

  auto t0 = Clock::now();
  {
    ScopedSpan span("build.metablock");
    auto r = ccidx::MetablockTree::Build(pager, std::span<const Point>(in.diag));
    if (!r.ok()) return "metablock build: " + r.status().ToString();
    t->metablock.emplace(std::move(*r));
  }
  auto t1 = Clock::now();
  {
    ScopedSpan span("build.bptree");
    std::vector<BtEntry> sorted = in.keys;
    std::sort(sorted.begin(), sorted.end());
    auto r = ccidx::BPlusTree::BulkLoad(pager, std::span<const BtEntry>(sorted));
    if (!r.ok()) return "bptree build: " + r.status().ToString();
    t->btree.emplace(std::move(*r));
  }
  auto t2 = Clock::now();
  {
    ScopedSpan span("build.interval");
    auto r = ccidx::IntervalIndex::Build(pager,
                                         std::span<const Interval>(in.intervals));
    if (!r.ok()) return "interval build: " + r.status().ToString();
    t->interval.emplace(std::move(*r));
  }
  auto t3 = Clock::now();
  {
    ScopedSpan span("build.three_sided");
    auto r = ccidx::ThreeSidedTree::Build(pager,
                                          std::span<const Point>(in.plane));
    if (!r.ok()) return "3-sided build: " + r.status().ToString();
    t->three_sided.emplace(std::move(*r));
  }
  auto t4 = Clock::now();
  t->build.metablock = SecondsBetween(t0, t1);
  t->build.bptree = SecondsBetween(t1, t2);
  t->build.interval = SecondsBetween(t2, t3);
  t->build.three_sided = SecondsBetween(t3, t4);
  t->build_device_writes = pager->CombinedStats().device_writes - writes0;

  std::vector<Rec> recs;
  recs.reserve(t->n);
  for (const Point& p : in.diag) recs.push_back(MakeRec(p.x, p.y, p.id));
  t->diag_ref = std::make_unique<StabRef>(recs);
  recs.clear();
  for (const Interval& iv : in.intervals) {
    recs.push_back(MakeRec(iv.lo, iv.hi, iv.id));
  }
  t->interval_ref = std::make_unique<StabRef>(recs);
  recs.clear();
  for (const Point& p : in.plane) recs.push_back(MakeRec(p.x, p.y, p.id));
  t->plane_ref = std::make_unique<ThreeSidedRef>(recs);
  recs.clear();
  for (size_t i = 0; i < t->n && i < in.keys.size(); ++i) {
    const BtEntry& e = in.keys[i];
    recs.push_back(MakeRec(e.key, static_cast<int64_t>(e.value), e.aux));
  }
  t->key_ref = std::make_unique<KeyRangeRef>(recs);
  *out = std::move(t);
  return "";
}

Request MakeReadRequest(Rng* rng, size_t n) {
  Request req;
  const uint64_t mode_draw = rng->Below(100);
  if (mode_draw < 30) {
    req.mode = ResultMode::kExists;
  } else if (mode_draw < 55) {
    req.mode = ResultMode::kCount;
  } else if (mode_draw < 85) {
    req.mode = ResultMode::kLimit;
    req.limit = static_cast<uint32_t>(rng->Between(1, 16));
  } else {
    req.mode = ResultMode::kRecords;
  }
  const bool report = req.mode == ResultMode::kRecords;
  const double per_unit = static_cast<double>(n) / kDomain;  // records/coord
  switch (rng->Below(4)) {
    case 0:
      req.type = RequestType::kMetablockDiagonal;
      req.args = {rng->Between(0, kDomain - 1), 0, 0};
      break;
    case 1: {
      req.type = RequestType::kBtreeRange;
      // Short windows (0-32 keys) for early-stop modes, 100-400 keys for
      // full reports.
      double want = report ? rng->Between(100, 400) : rng->Between(0, 32);
      int64_t width = static_cast<int64_t>(want / per_unit);
      int64_t lo = rng->Between(0, kDomain - 1 - width);
      req.args = {lo, lo + width, 0};
      break;
    }
    case 2:
      req.type = RequestType::kIntervalStab;
      req.args = {rng->Between(0, kDomain - 1), 0, 0};
      break;
    default: {
      req.type = RequestType::kThreeSided;
      // x-slab of about 512 (early-stop) or 2048 (report) points; ylo
      // keeps 0-40 or 100-400 of them.
      double slab = report ? 2048 : 512;
      double want = report ? rng->Between(100, 400) : rng->Between(0, 40);
      int64_t width = static_cast<int64_t>(slab / per_unit);
      int64_t xlo = rng->Between(0, kDomain - 1 - width);
      int64_t ylo = static_cast<int64_t>(kDomain * (1.0 - want / slab));
      req.args = {xlo, xlo + width, ylo};
      break;
    }
  }
  return req;
}

std::string CheckReadResponse(const ServedTables& t, const Request& req,
                              const Response& resp) {
  if (resp.status != WireStatus::kOk) return "status not ok";
  const Mode mode = static_cast<Mode>(req.mode);
  const bool listed =
      req.mode == ResultMode::kRecords || req.mode == ResultMode::kLimit;
  if (listed && resp.count != resp.records.size()) {
    return "count disagrees with the record list";
  }
  if (!listed && !resp.records.empty()) return "records in a count answer";
  const uint64_t got_count = resp.count;
  switch (req.type) {
    case RequestType::kMetablockDiagonal:
      return CheckAnswer(*t.diag_ref, req.args[0], mode, req.limit,
                         resp.records, got_count);
    case RequestType::kIntervalStab:
      return CheckAnswer(*t.interval_ref, req.args[0], mode, req.limit,
                         resp.records, got_count);
    case RequestType::kBtreeRange:
      return CheckAnswer(*t.key_ref, KeyRangeQ{req.args[0], req.args[1]},
                         mode, req.limit, resp.records, got_count);
    case RequestType::kThreeSided:
      return CheckAnswer(*t.plane_ref,
                         ThreeSidedQ{req.args[0], req.args[1], req.args[2]},
                         mode, req.limit, resp.records, got_count);
    default:
      return "not a read request";
  }
}

namespace {

Rec ToRec(const Point& p) { return MakeRec(p.x, p.y, p.id); }
Rec ToRec(const BtEntry& e) {
  return MakeRec(e.key, static_cast<int64_t>(e.value), e.aux);
}
Rec ToRec(const Interval& iv) { return MakeRec(iv.lo, iv.hi, iv.id); }

template <typename T, typename RunFn>
ccidx::Status RunWithMode(const Request& req, Response* resp, RunFn&& run) {
  switch (req.mode) {
    case ResultMode::kRecords: {
      std::vector<T> results;
      ccidx::VectorSink<T> sink(&results);
      ccidx::Status s = run(&sink);
      resp->count = results.size();
      for (const T& r : results) resp->records.push_back(ToRec(r));
      return s;
    }
    case ResultMode::kCount: {
      ccidx::CountSink<T> sink;
      ccidx::Status s = run(&sink);
      resp->count = sink.count();
      return s;
    }
    case ResultMode::kExists: {
      ccidx::ExistsSink<T> sink;
      ccidx::Status s = run(&sink);
      resp->count = sink.exists() ? 1 : 0;
      return s;
    }
    case ResultMode::kLimit: {
      ccidx::LimitSink<T> sink(req.limit);
      ccidx::Status s = run(&sink);
      resp->count = sink.results().size();
      for (const T& r : sink.results()) resp->records.push_back(ToRec(r));
      return s;
    }
  }
  return ccidx::Status::InvalidArgument("mode");
}

}  // namespace

ccidx::Status RunReadDirect(ServedTables* t, const Request& req,
                            Response* resp) {
  resp->id = req.id;
  ccidx::Status st = ccidx::Status::OK();
  switch (req.type) {
    case RequestType::kMetablockDiagonal:
      st = RunWithMode<Point>(req, resp, [&](ccidx::ResultSink<Point>* s) {
        return t->metablock->Query(ccidx::DiagonalQuery{req.args[0]}, s);
      });
      break;
    case RequestType::kBtreeRange:
      st = RunWithMode<BtEntry>(req, resp, [&](ccidx::ResultSink<BtEntry>* s) {
        return t->btree->RangeScan(req.args[0], req.args[1], s);
      });
      break;
    case RequestType::kIntervalStab:
      st = RunWithMode<Interval>(req, resp,
                                 [&](ccidx::ResultSink<Interval>* s) {
                                   return t->interval->Stab(req.args[0], s);
                                 });
      break;
    case RequestType::kThreeSided:
      st = RunWithMode<Point>(req, resp, [&](ccidx::ResultSink<Point>* s) {
        return t->three_sided->Query(
            ccidx::ThreeSidedQuery{req.args[0], req.args[1], req.args[2]}, s);
      });
      break;
    default:
      st = ccidx::Status::InvalidArgument("not a read request");
  }
  resp->status = st.ok() ? WireStatus::kOk : WireStatus::kError;
  return st;
}

const char* FamilyOf(RequestType type) {
  switch (type) {
    case RequestType::kMetablockDiagonal:
      return "core.metablock";
    case RequestType::kBtreeRange:
      return "bptree.range";
    case RequestType::kIntervalStab:
      return "interval.stab";
    case RequestType::kThreeSided:
      return "core.three_sided";
    default:
      return "other";
  }
}

}  // namespace ccbench
