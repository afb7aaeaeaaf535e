// serve-read: four closed-loop TCP clients against the four served tables,
// all resident in the pool. Serve (transport, codec, queue, dispatcher),
// the executor's reader side, warm pins and the in-page kernels do the
// work; the device, the WAL and the write paths do none.

#include <cmath>

#include "ccidx/query/executor.h"
#include "ccidx/serve/server.h"
#include "ccidx/serve/transport_tcp.h"
#include "served.h"
#include "tcp_load.h"
#include "harness.h"
#include "workloads.h"

namespace ccbench {

using ccidx::serve::Request;
using ccidx::serve::RequestType;
using ccidx::serve::Response;

namespace {

constexpr size_t kRecords = size_t{1} << 17;  // per table
constexpr uint32_t kPoolFrames = 1u << 16;    // holds every table
constexpr unsigned kClients = 4;
constexpr uint64_t kWarmupPerClient = 1000;
constexpr size_t kReplayRequests = 8192;
constexpr size_t kDirectPerFamily = 1000;

}  // namespace

void RunServeRead(RunContext* ctx) {
  Outcome& out = ctx->out;
  auto g0 = Clock::now();
  ServedInputs in = GenerateServedInputs(ctx->opt.seed, kRecords);
  ctx->excluded_s += SecondsBetween(g0, Clock::now());

  std::unique_ptr<ServedTables> t;
  ctx->Check(ServedTables::Build(in, kPoolFrames, &t), "build");
  if (t == nullptr) return;
  in = ServedInputs{};  // the references keep their own copies

  ccidx::serve::Server server(t->Tables(), BenchServerOptions());
  server.Start();
  ccidx::serve::TcpServerTransport transport(&server);
  ccidx::Status st = transport.Start();
  if (!st.ok()) {
    out.Fail("tcp transport: " + st.ToString());
    server.Stop();
    return;
  }
  TcpLoad load;
  ctx->Check(load.Connect(transport.port(), kClients), "clients");

  std::vector<Rng> rngs;
  for (unsigned c = 0; c < kClients; ++c) {
    rngs.emplace_back(ctx->opt.seed * 7919 + c);
  }
  auto make = [&](unsigned c, Request* req) {
    *req = MakeReadRequest(&rngs[c], kRecords);
    return false;
  };
  auto check = [&](unsigned, const Request& req, const Response& resp) {
    return CheckReadResponse(*t, req, resp);
  };

  PhaseSummary warm = Summarize(load.Run({}, kWarmupPerClient, make, check));
  ctx->Check(warm.first_error, "warm-up");
  const double setup_s = ctx->SetupSeconds();

  ccidx::Pager* pager = t->pager.get();
  const double total = ctx->opt.seconds;
  const double untraced = ctx->opt.trace ? total / 2 : total;

  // Untraced measurement (the whole run, or its first half when traced).
  const ccidx::IoStats io0 = pager->CombinedStats();
  PhaseSummary a = TimedPhase(&load, untraced, make, check);
  const ccidx::IoStats io1 = pager->CombinedStats();
  ctx->Check(a.first_error, "measured phase");
  out.attempted += a.reads + a.failed;
  out.failed += a.failed;
  const double qps = a.reads / a.seconds;

  const double page = pager->page_size();
  const double space =
      t->device->live_pages() * page / static_cast<double>(4 * kRecords);
  if (!ctx->opt.trace) {
    out.Add("setup_s", setup_s, "s");
    const WindowedFigures f = Windowed(a, 0);
    out.Add("qps", f.qps, "req/s");
    out.Add("query_p50_us", f.p50_us, "us");
    out.Add("query_p99_us", f.p99_us, "us");
    out.Add("ops_s", f.ops_s, "ops/s");
    out.Add("space_bytes_per_record", space, "bytes");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    out.Note("query_samples", static_cast<double>(a.read_us.size()));
    out.Note("qps_whole_run", qps);
    out.Note("query_p99_us_whole_run", P(a.read_us, 0.99));
    out.Note("measured_device_reads",
             static_cast<double>(io1.device_reads - io0.device_reads));
  } else {
    // Traced half: the same load with client spans, plus the serving
    // counters over exactly this phase.
    const ccidx::serve::ServerStats s0 = server.stats();
    Tracer::Get().Enable(true);
    const ccidx::IoStats iob0 = pager->CombinedStats();
    PhaseSummary b = TimedPhase(&load, total - untraced, make, check);
    const ccidx::IoStats iob1 = pager->CombinedStats();
    Tracer::Get().Enable(false);
    const ccidx::serve::ServerStats s1 = server.stats();
    ctx->Check(b.first_error, "traced phase");
    out.attempted += b.reads + b.failed;
    out.failed += b.failed;

    std::vector<double> accept(
        s1.dispatch.accept_latency_us.begin() +
            static_cast<long>(s0.dispatch.accept_latency_us.size()),
        s1.dispatch.accept_latency_us.end());
    const double accept_p50 = P(accept, 0.50);
    const double client_p50 = P(b.read_us, 0.50);
    if (!(accept_p50 <= client_p50)) {
      out.Fail("traced run: serve.accept_p50_us exceeds the client p50");
    }
    const double batches =
        static_cast<double>(s1.dispatch.batches - s0.dispatch.batches);
    const double mean_batch =
        batches > 0
            ? (s1.dispatch.batch_size_sum - s0.dispatch.batch_size_sum) /
                  batches
            : 0;
    std::vector<uint64_t> depth(s1.queue_depth_hist.size());
    for (size_t i = 0; i < depth.size(); ++i) {
      depth[i] = s1.queue_depth_hist[i] - s0.queue_depth_hist[i];
    }
    out.Add("serve.accept_p50_us", accept_p50, "us");
    out.Add("serve.accept_p99_us", P(accept, 0.99), "us");
    out.Add("serve.transport_p50_us", client_p50 - accept_p50, "us");
    out.Add("serve.mean_batch", mean_batch, "count");
    out.Add("serve.queue_depth_p99", DepthP99(depth), "count");
    out.Add("query.reader_gate_wait_p99_us",
            Minus(s1.reader_gate_wait, s0.reader_gate_wait).PercentileNs(99) /
                1e3,
            "us");
    const ccidx::IoStats iob = iob1 - iob0;
    out.Add("pager.hit_ratio", HitRatio(iob), "ratio");
    const double qps_b = b.reads / b.seconds;
    out.Add("trace.overhead_pct", 100.0 * (qps - qps_b) / qps, "%");
    out.Add("trace.query_samples", static_cast<double>(b.read_us.size()),
            "count");

    // The served mix replayed through QueryExecutor::RunBatch without
    // serve, at the batch size the dispatcher formed.
    Tracer::Get().Enable(true);
    Rng rr(ctx->opt.seed * 31 + 5);
    std::vector<Request> reqs;
    for (size_t i = 0; i < kReplayRequests; ++i) {
      reqs.push_back(MakeReadRequest(&rr, kRecords));
    }
    auto rep = ReplayBatches<Request, Response>(
        reqs, std::max<long>(1, std::lround(mean_batch)), pager,
        "query.served_request", [&](const Request& q, Response* resp) {
          return RunReadDirect(t.get(), q, resp);
        });
    for (size_t i = 0; i < reqs.size(); ++i) {
      std::string why = CheckReadResponse(*t, reqs[i], rep.responses[i]);
      if (!why.empty()) {
        out.Fail("replay: " + why);
        break;
      }
    }
    out.Add("query.batch_us_per_query", rep.us_per_query, "us");
    out.Add("query.worker_skew", rep.worker_skew, "ratio");
    out.Add("query.executor_self_us_per_query", rep.executor_self_us,
            "us");
    out.Add("pager.pins_per_query", rep.pins_per_query, "count");

    // Single-thread direct calls per family on the workload's queries.
    for (RequestType type :
         {RequestType::kMetablockDiagonal, RequestType::kThreeSided,
          RequestType::kBtreeRange, RequestType::kIntervalStab}) {
      std::vector<Request> mine;
      Rng fr(ctx->opt.seed * 131 + static_cast<uint64_t>(type));
      while (mine.size() < kDirectPerFamily) {
        Request q = MakeReadRequest(&fr, kRecords);
        if (q.type == type) mine.push_back(q);
      }
      auto d = TimeDirect<Request, Response>(
          mine, QuerySpanName(FamilyOf(type)),
          [&](const Request& q, Response* resp) {
            return RunReadDirect(t.get(), q, resp);
          });
      for (size_t i = 0; i < mine.size(); ++i) {
        ctx->Check(CheckReadResponse(*t, mine[i], d.responses[i]), "direct");
      }
      out.Add(std::string(FamilyOf(type)) + ".query_us", d.us_per_query, "us");
    }
    Tracer::Get().Enable(false);
    out.Add("device.live_pages", static_cast<double>(t->device->live_pages()),
            "pages");
    AddBuildMetrics(&out, {{"build.metablock_s", t->build.metablock},
                           {"build.bptree_s", t->build.bptree},
                           {"build.interval_s", t->build.interval},
                           {"build.three_sided_s", t->build.three_sided}},
                    t->build_device_writes, 4 * kRecords);
    FinishTrace(ctx);
  }

  load.Close();
  transport.Stop();
  server.Stop();
  // Every answered read went through the dispatcher exactly once.
  const uint64_t answered = warm.reads + out.attempted - out.failed;
  if (server.stats().dispatch.queries != answered) {
    out.Fail("dispatcher query count differs from the replies received");
  }
}

}  // namespace ccbench
