// The metric names the benchmark reports, with their units. BENCHMARK.json
// declares the same lists (the self-test compares them).

#ifndef CCBENCH_METRIC_NAMES_H_
#define CCBENCH_METRIC_NAMES_H_

#include <string>
#include <vector>

namespace ccbench {

struct MetricName {
  std::string name;
  std::string unit;
};

/// Untraced run: measured on every workload.
inline const std::vector<MetricName>& EndToEndMetrics() {
  static const std::vector<MetricName> names = {
      {"setup_s", "s"},
      {"qps", "req/s"},
      {"query_p50_us", "us"},
      {"query_p99_us", "us"},
      {"ops_s", "ops/s"},
      {"space_bytes_per_record", "bytes"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

/// Traced run. A metric of a layer the workload does not exercise reads 0
/// (README.md lists which workload measures which metric).
inline const std::vector<MetricName>& PerLayerMetrics() {
  static const std::vector<MetricName> names = {
      // serve
      {"serve.accept_p50_us", "us"},
      {"serve.accept_p99_us", "us"},
      {"serve.transport_p50_us", "us"},
      {"serve.mean_batch", "count"},
      {"serve.queue_depth_p99", "count"},
      // query (executors and the epoch gate)
      {"query.reader_gate_wait_p99_us", "us"},
      {"query.writer_gate_wait_p99_us", "us"},
      {"query.batch_us_per_query", "us"},
      {"query.executor_self_us_per_query", "us"},
      {"query.worker_skew", "ratio"},
      // families, single-thread direct calls
      {"core.metablock.query_us", "us"},
      {"core.three_sided.query_us", "us"},
      {"bptree.range.query_us", "us"},
      {"interval.stab.query_us", "us"},
      {"classes.simple.query_us", "us"},
      {"classes.rake.query_us", "us"},
      {"constraint.range.query_us", "us"},
      {"core.metablock.device_reads_per_query", "pages"},
      {"core.three_sided.device_reads_per_query", "pages"},
      {"bptree.range.device_reads_per_query", "pages"},
      {"classes.simple.device_reads_per_query", "pages"},
      {"classes.rake.device_reads_per_query", "pages"},
      {"constraint.range.device_reads_per_query", "pages"},
      {"bptree.update_us", "us"},
      {"pst.update_us", "us"},
      {"interval.update_us", "us"},
      {"classes.update_us", "us"},
      {"dynamic.update_us", "us"},
      // workload-specific end-to-end figures without a bound
      {"update_ops_s", "ops/s"},
      {"update_p50_us", "us"},
      {"update_p99_us", "us"},
      {"device_reads_per_query", "pages"},
      {"device_writes_per_update", "pages"},
      {"log_bytes_per_update", "bytes"},
      // io: pager and device
      {"pager.hit_ratio", "ratio"},
      {"pager.pins_per_query", "count"},
      {"pager.read_batches_per_query", "count"},
      {"pager.prefetches_issued_per_query", "count"},
      {"pager.prefetches_revived", "count"},
      {"device.reads_per_batch", "pages"},
      {"device.live_pages", "pages"},
      // io: wal
      {"wal.records_per_update", "count"},
      {"wal.commits_per_update", "count"},
      {"wal.syncs_per_commit", "ratio"},
      {"wal.checkpoints", "count"},
      {"wal.checkpoint_p50_ms", "ms"},
      {"wal.checkpoint_max_ms", "ms"},
      {"wal.checkpoint_quiesce_ms", "ms"},
      {"wal.recover_ms", "ms"},
      {"wal.recover_records_scanned", "count"},
      {"wal.recover_images_restored", "count"},
      // dynamic: maintenance
      {"maintenance.rebuilds_committed", "count"},
      {"maintenance.rebuild_commit_ratio", "ratio"},
      {"maintenance.job_ms", "ms"},
      // build
      {"build.metablock_s", "s"},
      {"build.bptree_s", "s"},
      {"build.interval_s", "s"},
      {"build.three_sided_s", "s"},
      {"build.simple_class_s", "s"},
      {"build.rake_s", "s"},
      {"build.constraint_s", "s"},
      {"build.dynamic_metablock_s", "s"},
      {"build.dynamic_pst_s", "s"},
      {"build.dynamic_interval_s", "s"},
      {"build.device_writes_per_record", "pages"},
      // the trace itself
      {"trace.overhead_pct", "%"},
      {"trace.query_samples", "count"},
      {"trace.update_samples", "count"},
  };
  return names;
}

}  // namespace ccbench

#endif  // CCBENCH_METRIC_NAMES_H_
