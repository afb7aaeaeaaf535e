// The four served tables (metablock diagonal, B+-tree range, interval stab,
// 3-sided) behind ccidx's serving front-end, with the benchmark's own
// references over the same inputs, the read-request mix and its checker.
// Shared by serve-read and durable-writes.

#ifndef CCBENCH_SERVED_H_
#define CCBENCH_SERVED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/serve/catalog.h"
#include "ccidx/serve/frame.h"
#include "common.h"
#include "reference.h"

namespace ccbench {

inline constexpr uint32_t kBranching = 64;           // records per page (B)
inline constexpr ccidx::Coord kDomain = 1ll << 24;  // coordinate domain

/// Generated inputs of the served tables (input generation is excluded
/// from set-up time).
struct ServedInputs {
  std::vector<ccidx::Point> diag;         // x <= y, bounded length
  std::vector<ccidx::BtEntry> keys;       // distinct keys in [0, kDomain)
  std::vector<ccidx::Interval> intervals; // bounded length
  std::vector<ccidx::Point> plane;        // anywhere in the domain
  ccidx::Coord max_len = 0;
};

/// `n` records per table. `extra` B+-tree entries (the written-key region
/// of durable-writes) are appended to `keys` by the caller.
ServedInputs GenerateServedInputs(uint64_t seed, size_t n);

/// Seconds spent building each table (build.<family>_s).
struct BuildTimes {
  double metablock = 0, bptree = 0, interval = 0, three_sided = 0;
};

/// Device + pool + the four tables + references.
class ServedTables {
 public:
  /// Builds every table on a pool of `pool_frames` frames. Aborts the run
  /// (returns an error string) on any build failure.
  static std::string Build(const ServedInputs& in, uint32_t pool_frames,
                           std::unique_ptr<ServedTables>* out);

  ccidx::serve::ServeTables Tables() {
    ccidx::serve::ServeTables t;
    t.pager = pager.get();
    t.metablock = &*metablock;
    t.btree = &*btree;
    t.interval = &*interval;
    t.three_sided = &*three_sided;
    return t;
  }

  std::unique_ptr<ccidx::BlockDevice> device;
  std::unique_ptr<ccidx::Pager> pager;
  std::optional<ccidx::MetablockTree> metablock;
  std::optional<ccidx::BPlusTree> btree;
  std::optional<ccidx::IntervalIndex> interval;
  std::optional<ccidx::ThreeSidedTree> three_sided;
  BuildTimes build;
  uint64_t build_device_writes = 0;

  // References over the same inputs. The B+-tree reference covers the
  // bulk-loaded read keys only (durable-writes models its written keys).
  std::unique_ptr<StabRef> diag_ref;
  std::unique_ptr<KeyRangeRef> key_ref;
  std::unique_ptr<StabRef> interval_ref;
  std::unique_ptr<ThreeSidedRef> plane_ref;
  size_t n = 0;
};

/// The served read mix. Most requests stop early (exists, count over a
/// short window, limit-k); about one in seven is a full report of a few
/// hundred records.
ccidx::serve::Request MakeReadRequest(Rng* rng, size_t n);

/// Checks a read response against the references; "" when right.
std::string CheckReadResponse(const ServedTables& t,
                              const ccidx::serve::Request& req,
                              const ccidx::serve::Response& resp);

/// Same as serve::RunOne, called directly (the RunBatch replay and the
/// single-thread family timings): runs `req` against the tables into
/// `resp` with the sink its mode asks for.
ccidx::Status RunReadDirect(ServedTables* t, const ccidx::serve::Request& req,
                            ccidx::serve::Response* resp);

/// The server configuration both served workloads use: the defaults,
/// with two reader workers. Four clients, the transport loop, the
/// dispatcher and the workers share 4 vCPUs; with four workers the
/// figures were lower and spread twice as wide from run to run.
inline ccidx::serve::ServerOptions BenchServerOptions() {
  ccidx::serve::ServerOptions o;
  o.query_threads = 2;
  return o;
}

/// Family label of a request type, as used in the per-layer names.
const char* FamilyOf(ccidx::serve::RequestType type);

}  // namespace ccbench

#endif  // CCBENCH_SERVED_H_
