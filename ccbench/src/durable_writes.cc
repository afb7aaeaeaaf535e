// durable-writes: four closed-loop TCP clients, a WAL attached at set-up.
// About half the requests are kUpdateBatch requests of balanced B+-tree
// inserts and deletes on the written-key region; each client owns the
// keys congruent to its index modulo 4. The other half are the serve-read
// mix plus B+-tree ranges over the written keys, checked for
// read-your-writes. A checkpoint is scheduled on a MaintenanceThread after
// every kCheckpointEvery acknowledged update requests. After the last
// reply the server stops, a fixed tail of kTailCommits commits follows the
// last checkpoint, and power loss is simulated: Wal::Recover discards the
// pool and the tree re-attaches from its recovered meta. The recovered
// tree must equal the model of every acknowledged update.

#include <algorithm>
#include <mutex>

#include "ccidx/dynamic/maintenance.h"
#include "ccidx/io/wal.h"
#include "ccidx/query/sink.h"
#include "ccidx/serve/server.h"
#include "ccidx/serve/transport_tcp.h"
#include "harness.h"
#include "served.h"
#include "tcp_load.h"
#include "workloads.h"

namespace ccbench {

using ccidx::serve::Request;
using ccidx::serve::RequestType;
using ccidx::serve::Response;
using ccidx::serve::ResultMode;
using ccidx::serve::UpdateOp;
using ccidx::serve::WireStatus;

namespace {

constexpr size_t kRecords = size_t{1} << 16;  // per read table
constexpr int64_t kWriteBase = kDomain;       // written keys: base + slot
constexpr int64_t kSlots = int64_t{1} << 15;  // written-key slots
constexpr unsigned kClients = 4;
constexpr uint32_t kPoolFrames = 1u << 16;
constexpr uint64_t kWarmupPerClient = 500;
// Acknowledged update requests between checkpoints: several per second.
// At 256 (~50/s) the read p99 sat inside the checkpoints' gate stalls and
// moved with every change in their length.
constexpr uint64_t kCheckpointEvery = 2048;
constexpr int kTailCommits = 64;            // commits after the last checkpoint
constexpr int64_t kRangeSlots = 64;         // written-key range read width
constexpr int kDirectUpdates = 512;
constexpr uint32_t kOpsPerBatch = 4;  // half inserts, half deletes

/// One client's acknowledged state of its own slots (slot % 4 == owner).
class OwnedKeys {
 public:
  OwnedKeys(unsigned owner, uint64_t seed) : rng_(seed) {
    for (int64_t s = owner; s < kSlots; s += kClients) {
      if (InitiallyLive(s)) {
        Add(&live_, s);
        value_[s] = InitialValue(s);
      } else {
        Add(&dead_, s);
      }
    }
  }

  /// Half of every client's slots start live.
  static bool InitiallyLive(int64_t slot) { return (slot / kClients) % 2 == 0; }
  static uint64_t InitialValue(int64_t slot) {
    return static_cast<uint64_t>(slot) * 7 + 1;
  }

  /// Inserts of fresh slots, then as many deletes of live ones.
  std::vector<UpdateOp> MakeBatch() {
    std::vector<UpdateOp> ops;
    std::vector<int64_t> used;
    for (uint32_t i = 0; i < kOpsPerBatch / 2; ++i) {
      int64_t s = Pick(dead_, used);
      used.push_back(s);
      ops.push_back({UpdateOp::Kind::kInsert, kWriteBase + s,
                     rng_.Next() >> 1, 0});
    }
    for (uint32_t i = 0; i < kOpsPerBatch / 2; ++i) {
      int64_t s = Pick(live_, used);
      used.push_back(s);
      ops.push_back({UpdateOp::Kind::kDelete, kWriteBase + s, value_[s], 0});
    }
    return ops;
  }

  /// Applies an acknowledged batch.
  void Apply(const std::vector<UpdateOp>& ops) {
    for (const UpdateOp& op : ops) {
      const int64_t s = op.key - kWriteBase;
      if (op.kind == UpdateOp::Kind::kInsert) {
        Move(&dead_, &live_, s);
        value_[s] = op.value;
      } else {
        Move(&live_, &dead_, s);
        value_.erase(s);
      }
    }
  }

  /// Acknowledged entries with keys in [lo, hi].
  std::vector<Rec> InRange(int64_t lo, int64_t hi) const {
    std::vector<Rec> out;
    for (int64_t k = lo; k <= hi; ++k) {
      auto it = value_.find(k - kWriteBase);
      if (it != value_.end()) {
        out.push_back(MakeRec(k, static_cast<int64_t>(it->second), 0));
      }
    }
    return out;
  }

  void AppendAll(std::vector<Rec>* out) const {
    for (const auto& [s, v] : value_) {
      out->push_back(MakeRec(kWriteBase + s, static_cast<int64_t>(v), 0));
    }
  }

  Rng* rng() { return &rng_; }

 private:
  struct Pool {
    std::vector<int64_t> items;
    std::unordered_map<int64_t, size_t> pos;
  };
  static void Add(Pool* p, int64_t s) {
    p->pos[s] = p->items.size();
    p->items.push_back(s);
  }
  static void Remove(Pool* p, int64_t s) {
    size_t i = p->pos.at(s);
    p->pos[p->items.back()] = i;
    p->items[i] = p->items.back();
    p->items.pop_back();
    p->pos.erase(s);
  }
  static void Move(Pool* from, Pool* to, int64_t s) {
    Remove(from, s);
    Add(to, s);
  }
  int64_t Pick(const Pool& p, const std::vector<int64_t>& avoid) {
    for (;;) {
      int64_t s = p.items[rng_.Below(p.items.size())];
      if (std::find(avoid.begin(), avoid.end(), s) == avoid.end()) return s;
    }
  }

  Rng rng_;
  Pool live_, dead_;
  std::unordered_map<int64_t, uint64_t> value_;
};

struct CheckpointRecord {
  double quiesce_ms = 0, total_ms = 0;
  uint64_t log_before = 0, log_after = 0;
  bool ok = false;
};

}  // namespace

void RunDurableWrites(RunContext* ctx) {
  Outcome& out = ctx->out;
  ctx->host.wal_storage = "mem";
  ctx->host.flush_policy = "force-at-commit, group sync";
  auto g0 = Clock::now();
  ServedInputs in = GenerateServedInputs(ctx->opt.seed, kRecords);
  for (int64_t s = 0; s < kSlots; ++s) {
    if (!OwnedKeys::InitiallyLive(s)) continue;
    in.keys.push_back({kWriteBase + s, OwnedKeys::InitialValue(s), 0});
  }
  std::vector<OwnedKeys> owned;
  for (unsigned c = 0; c < kClients; ++c) {
    owned.emplace_back(c, ctx->opt.seed * 6151 + c);
  }
  ctx->excluded_s += SecondsBetween(g0, Clock::now());

  std::unique_ptr<ServedTables> t;
  ctx->Check(ServedTables::Build(in, kPoolFrames, &t), "build");
  if (t == nullptr) return;
  std::vector<Rec> base_entries;  // the read keys, untouched by updates
  for (size_t i = 0; i < kRecords; ++i) {
    const ccidx::BtEntry& e = in.keys[i];
    base_entries.push_back(
        MakeRec(e.key, static_cast<int64_t>(e.value), e.aux));
  }
  in = ServedInputs{};
  ccidx::Pager* pager = t->pager.get();

  ccidx::Wal wal(t->device.get(), ccidx::MakeMemWalStorage());
  pager->AttachWal(&wal);
  wal.SetMetaProvider("btree", [&] { return t->btree->SerializeMeta(); });

  ccidx::serve::Server server(t->Tables(), BenchServerOptions());
  ccidx::EpochGate* gate = server.query_executor()->gate();
  std::mutex ckpt_mu;
  std::vector<CheckpointRecord> checkpoints;  // guarded by ckpt_mu
  ccidx::MaintenanceThread maint(gate);
  // The MaintenanceThread::CheckpointJob body, with its quiesce and its
  // checkpoint timed apart and the log size read on both sides.
  auto checkpoint_job = [&] {
    CheckpointRecord r;
    auto t0 = Clock::now();
    gate->EnterWrite();
    auto t1 = Clock::now();
    r.log_before = wal.log_bytes();
    r.ok = wal.Checkpoint(pager).ok();
    r.log_after = wal.log_bytes();
    gate->ExitWrite();
    r.quiesce_ms = MicrosBetween(t0, t1) / 1e3;
    r.total_ms = MicrosBetween(t0, Clock::now()) / 1e3;
    std::lock_guard lock(ckpt_mu);
    checkpoints.push_back(r);
  };

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

  std::atomic<uint64_t> acked_requests{0};
  std::vector<std::vector<UpdateOp>> pending(kClients);
  auto make = [&](unsigned c, Request* req) {
    Rng* rng = owned[c].rng();
    if (rng->Below(2) == 0) {
      req->type = RequestType::kUpdateBatch;
      req->updates = owned[c].MakeBatch();
      pending[c] = req->updates;
      return true;
    }
    if (rng->Below(2) == 0) {
      *req = MakeReadRequest(rng, kRecords);
      return false;
    }
    req->type = RequestType::kBtreeRange;
    req->mode = ResultMode::kRecords;
    const int64_t lo = kWriteBase + rng->Between(0, kSlots - kRangeSlots);
    req->args = {lo, lo + kRangeSlots - 1, 0};
    return false;
  };
  auto check = [&](unsigned c, const Request& req,
                   const Response& resp) -> std::string {
    if (req.type == RequestType::kUpdateBatch) {
      // Delete outcomes are not reported per op (a delete that matched
      // nothing also answers kOk), so the model, not `count`, is what the
      // deletes are checked against — at recovery.
      if (resp.count != req.updates.size()) return "update: ops not applied";
      for (uint8_t s : resp.update_status) {
        if (s != static_cast<uint8_t>(WireStatus::kOk)) return "update: op failed";
      }
      owned[c].Apply(pending[c]);
      if (acked_requests.fetch_add(1) % kCheckpointEvery ==
          kCheckpointEvery - 1) {
        maint.Schedule(checkpoint_job);
      }
      return "";
    }
    if (req.type == RequestType::kBtreeRange && req.args[0] >= kWriteBase) {
      std::vector<Rec> mine = owned[c].InRange(req.args[0], req.args[1]);
      return CheckOwnedRange(resp.records, req.args[0], req.args[1], c,
                             kClients, mine);
    }
    return CheckReadResponse(*t, req, resp);
  };

  PhaseSummary warm = Summarize(load.Run({}, kWarmupPerClient, make, check));
  ctx->Check(warm.first_error, "warm-up");
  maint.Drain();
  const double setup_s = ctx->SetupSeconds();
  uint64_t acked_ops = warm.update_ops;

  const double total = ctx->opt.seconds;
  const double untraced = ctx->opt.trace ? total / 2 : total;
  PhaseSummary a = TimedPhase(&load, untraced, make, check);
  ctx->Check(a.first_error, "measured phase");
  out.attempted += a.reads + a.updates + a.failed;
  out.failed += a.failed;
  acked_ops += a.update_ops;
  const double qps = a.reads / a.seconds;
  const double ops_s = (a.reads + a.update_ops) / a.seconds;

  if (!ctx->opt.trace) {
    out.Add("setup_s", setup_s, "s");
    const WindowedFigures f = Windowed(a, kOpsPerBatch);
    out.Add("qps", f.qps, "req/s");
    out.Add("query_p50_us", f.p50_us, "us");
    out.Add("query_p99_us", f.p99_us, "us");
    out.Add("ops_s", f.ops_s, "ops/s");
    out.Note("qps_whole_run", qps);
    out.Note("ops_s_whole_run", ops_s);
    out.Note("query_samples", static_cast<double>(a.read_us.size()));
    out.Note("update_samples", static_cast<double>(a.update_us.size()));
    out.Note("update_ops_s", a.update_ops / a.seconds);
    out.Note("update_p50_us", P(a.update_us, 0.50));
    out.Note("update_p99_us", P(a.update_us, 0.99));
  } else {
    maint.Drain();
    const ccidx::serve::ServerStats s0 = server.stats();
    const ccidx::WaitHistogram w0 = gate->writer_wait_histogram();
    const ccidx::IoStats io0 = pager->CombinedStats();
    const uint64_t rec0 = wal.records(), com0 = wal.commits(),
                   syn0 = wal.syncs();
    size_t ck0;
    uint64_t log0;
    {
      std::lock_guard lock(ckpt_mu);
      ck0 = checkpoints.size();
    }
    log0 = wal.log_bytes();
    Tracer::Get().Enable(true);
    PhaseSummary b = TimedPhase(&load, total - untraced, make, check);
    Tracer::Get().Enable(false);
    maint.Drain();
    ctx->Check(b.first_error, "traced phase");
    out.attempted += b.reads + b.updates + b.failed;
    out.failed += b.failed;
    acked_ops += b.update_ops;
    const ccidx::serve::ServerStats s1 = server.stats();
    const ccidx::IoStats io = pager->CombinedStats() - io0;
    const double ops = static_cast<double>(std::max<uint64_t>(1, b.update_ops));

    // Log bytes appended in the phase: the log grows between checkpoints
    // and each checkpoint truncates it, so sum each cycle's growth.
    std::vector<double> ck_ms, ck_quiesce;
    uint64_t appended = 0, from = log0;
    {
      std::lock_guard lock(ckpt_mu);
      for (size_t i = ck0; i < checkpoints.size(); ++i) {
        appended += checkpoints[i].log_before - from;
        from = checkpoints[i].log_after;
        ck_ms.push_back(checkpoints[i].total_ms);
        ck_quiesce.push_back(checkpoints[i].quiesce_ms);
      }
    }
    appended += wal.log_bytes() - from;

    out.Add("update_ops_s", b.update_ops / b.seconds, "ops/s");
    out.Add("update_p50_us", P(b.update_us, 0.50), "us");
    out.Add("update_p99_us", P(b.update_us, 0.99), "us");
    out.Add("device_writes_per_update", io.device_writes / ops, "pages");
    out.Add("log_bytes_per_update", appended / ops, "bytes");
    out.Add("wal.records_per_update", (wal.records() - rec0) / ops, "count");
    out.Add("wal.commits_per_update", (wal.commits() - com0) / ops, "count");
    out.Add("wal.syncs_per_commit",
            wal.commits() > com0
                ? static_cast<double>(wal.syncs() - syn0) /
                      (wal.commits() - com0)
                : 0,
            "ratio");
    out.Add("wal.checkpoints", static_cast<double>(ck_ms.size()), "count");
    out.Add("wal.checkpoint_p50_ms", P(ck_ms, 0.5), "ms");
    out.Add("wal.checkpoint_max_ms", P(ck_ms, 1.0), "ms");
    out.Add("wal.checkpoint_quiesce_ms", P(ck_quiesce, 0.5), "ms");
    out.Add("query.reader_gate_wait_p99_us",
            Minus(s1.reader_gate_wait, s0.reader_gate_wait).PercentileNs(99) /
                1e3,
            "us");
    out.Add("query.writer_gate_wait_p99_us",
            Minus(gate->writer_wait_histogram(), w0).PercentileNs(99) / 1e3,
            "us");
    std::vector<double> accept(
        s1.dispatch.accept_latency_us.begin() +
            static_cast<long>(s0.dispatch.accept_latency_us.size()),
        s1.dispatch.accept_latency_us.end());
    out.Add("serve.accept_p50_us", P(accept, 0.50), "us");
    out.Add("serve.accept_p99_us", P(accept, 0.99), "us");
    out.Add("trace.overhead_pct",
            100.0 * (ops_s - (b.reads + b.update_ops) / b.seconds) / ops_s,
            "%");
    out.Add("trace.query_samples", static_cast<double>(b.read_us.size()),
            "count");
    out.Add("trace.update_samples", static_cast<double>(b.update_us.size()),
            "count");
  }

  load.Close();
  transport.Stop();
  server.Stop();
  maint.Drain();
  // Every acknowledged op reached the update executor exactly once.
  if (server.stats().dispatch.update_ops != acked_ops) {
    out.Fail("dispatcher update_ops " +
             std::to_string(server.stats().dispatch.update_ops) +
             " differs from the acknowledged ops " + std::to_string(acked_ops));
  }

  ccidx::BPlusTree* tree = &*t->btree;
  if (ctx->opt.trace) {
    // Single-thread B+-tree updates under the WAL, on keys above every
    // slot: inserted, then deleted again (net state unchanged).
    Tracer::Get().Enable(true);
    double us = 0;
    for (int i = 0; i < 2 * kDirectUpdates; ++i) {
      const int64_t key = kWriteBase + kSlots + (i % kDirectUpdates);
      auto t0 = Clock::now();
      ccidx::Status s;
      {
        ScopedSpan span("bptree.update");
        bool found = false;
        s = i < kDirectUpdates ? tree->Insert(key, 1, 0)
                               : tree->Delete(key, 1, &found);
        if (s.ok() && i >= kDirectUpdates && !found) {
          out.Fail("bptree: direct delete missed its own insert");
        }
      }
      us += MicrosBetween(t0, Clock::now());
      ctx->Check(s.ok() ? "" : s.ToString(), "bptree direct update");
    }
    Tracer::Get().Enable(false);
    out.Add("bptree.update_us", us / (2 * kDirectUpdates), "us");
  }

  // A fixed tail after the last checkpoint, so recovery replays the same
  // amount of work in every run.
  ctx->Check(wal.Checkpoint(pager).ok() ? "" : "checkpoint failed",
             "final checkpoint");
  for (int i = 0; i < kTailCommits; ++i) {
    std::vector<UpdateOp> ops = owned[i % kClients].MakeBatch();
    const UpdateOp& op = ops[i % 2 == 0 ? 0 : 2];  // one insert or delete
    ccidx::Status s;
    bool found = true;
    if (op.kind == UpdateOp::Kind::kInsert) {
      s = tree->Insert(op.key, op.value, op.aux);
    } else {
      s = tree->Delete(op.key, op.value, &found);
    }
    if (!s.ok() || !found) {
      out.Fail("tail update failed");
      break;
    }
    owned[i % kClients].Apply({op});
  }

  // Power loss: the pool is volatile. Recover, then re-attach the tree.
  auto r0 = Clock::now();
  auto info = wal.Recover(pager);
  std::optional<ccidx::BPlusTree> recovered;
  if (info.ok() && info->metas.count("btree") > 0) {
    auto bt = ccidx::BPlusTree::AttachMeta(pager, info->metas.at("btree"));
    if (bt.ok()) recovered.emplace(std::move(*bt));
  }
  const double recover_ms = MicrosBetween(r0, Clock::now()) / 1e3;
  if (!recovered) {
    out.Fail("recovery: " + (info.ok() ? std::string("no btree meta")
                                       : info.status().ToString()));
    return;
  }
  t->btree.emplace(std::move(*recovered));
  std::vector<ccidx::BtEntry> scan;
  ccidx::VectorSink<ccidx::BtEntry> sink(&scan);
  ctx->Check(t->btree->RangeScan(ccidx::kCoordMin, ccidx::kCoordMax, &sink)
                     .ok()
                 ? ""
                 : "scan failed",
             "recovery");
  std::vector<Rec> got, model = base_entries;
  for (const ccidx::BtEntry& e : scan) {
    got.push_back(MakeRec(e.key, static_cast<int64_t>(e.value), e.aux));
  }
  for (const OwnedKeys& o : owned) o.AppendAll(&model);
  ctx->Check(CheckRecoveredScan(std::move(got), std::move(model)),
             "recovery");
  // Sampled queries on every table, the untouched ones included.
  Rng sample(ctx->opt.seed * 97 + 1);
  for (int i = 0; i < 400; ++i) {
    Request req = MakeReadRequest(&sample, kRecords);
    Response resp;
    RunReadDirect(t.get(), req, &resp);
    ctx->Check(CheckReadResponse(*t, req, resp), "after recovery");
  }
  if (ctx->opt.trace) {
    out.Add("wal.recover_ms", recover_ms, "ms");
    out.Add("wal.recover_records_scanned",
            static_cast<double>(info->records_scanned), "count");
    out.Add("wal.recover_images_restored",
            static_cast<double>(info->images_restored), "count");
    out.Add("device.live_pages", static_cast<double>(t->device->live_pages()),
            "pages");
    AddBuildMetrics(&out, {{"build.metablock_s", t->build.metablock},
                           {"build.bptree_s", t->build.bptree},
                           {"build.interval_s", t->build.interval},
                           {"build.three_sided_s", t->build.three_sided}},
                    t->build_device_writes,
                    4 * kRecords + static_cast<uint64_t>(kSlots / 2));
    FinishTrace(ctx);
  } else {
    const double records =
        static_cast<double>(3 * kRecords + t->btree->size());
    out.Add("space_bytes_per_record",
            t->device->live_pages() * pager->page_size() / records, "bytes");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    out.Note("recover_ms", recover_ms);
  }
}

}  // namespace ccbench
