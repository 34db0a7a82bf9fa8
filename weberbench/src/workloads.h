// The three workloads of the weber benchmark and the metric tables every
// one of them reports.
#ifndef WEBERBENCH_WORKLOADS_H_
#define WEBERBENCH_WORKLOADS_H_

#include <cstddef>

#include "common.h"
#include "obs/metrics.h"

namespace weberbench {

/// Match decision threshold of every workload (TokenJaccardMatcher).
inline constexpr double kThreshold = 0.6;

/// One printed metric and its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics: a traced run prints all of them. A layer the
/// workload never calls reads 0 (see README.md for the layer map).
inline constexpr MetricSpec kLayerMetrics[] = {
    {"blocking.build_s", "s"},
    {"blocking.purge_s", "s"},
    {"blocking.block_assignments", "count"},
    {"eval.block_quality_s", "s"},
    {"metablocking.metablock_s", "s"},
    {"metablocking.kept_ratio", "ratio"},
    {"matching.prepare_s", "s"},
    {"progressive.run_s", "s"},
    {"matching.comparisons", "count"},
    {"matching.pairs_per_s", "1/s"},
    {"matching.match_ratio", "ratio"},
    {"matching.cluster_s", "s"},
    {"core.executor.utilization", "ratio"},
    {"core.executor.steals", "count"},
    {"incremental.ingest_batch_p50_ms", "ms"},
    {"incremental.ingest_batch_p99_ms", "ms"},
    {"incremental.candidates_per_desc", "pairs/desc"},
    {"incremental.index_updates_per_desc", "count/desc"},
    {"storage.checkpoint_s", "s"},
    {"storage.snapshot_bytes", "B"},
    {"storage.wal_bytes", "B"},
    {"storage.wal_fsyncs", "count"},
    {"storage.recover_s", "s"},
    {"storage.replayed_records", "count"},
    {"serve.batches", "count"},
    {"serve.batch_entities", "desc/batch"},
    {"serve.shed", "count"},
    {"serve.resolver_batch_p50_ms", "ms"},
    {"serve.resolver_batch_p99_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.resolve_idle_p50_us", "us"},
    {"serve.resolve_idle_p99_us", "us"},
    {"serve.shard_imbalance", "ratio"},
    {"serve.ingest_p99_ms", "ms"},
    {"serve.resolve_p50_us", "us"},
    {"serve.resolve_p99_us", "us"},
    {"serve.ingest_samples", "count"},
    {"serve.resolve_samples", "count"},
    {"serve.generator_lag_p99_ms", "ms"},
    {"residual_s", "s"},
    {"trace_overhead", "ratio"},
};

/// The end-to-end metrics: an untraced run prints all of them.
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"desc_per_s", "1/s"},
    {"f1", "ratio"},
    {"pc", "ratio"},
    {"setup_s", "s"},
    {"disk_bytes_per_desc", "B/desc"},
    {"ingest_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Sets an end-to-end metric, taking its unit from kEndToEndMetrics.
void SetEndToEnd(Report& report, const char* name, double value);

/// Sets a per-layer metric, taking its unit from kLayerMetrics.
void SetLayer(Report& report, const char* name, double value);
/// Sets every per-layer metric to 0 (the value of a layer not called).
void SetLayerDefaults(Report& report);

/// The shared executor's utilization and steals over one traced
/// repetition, read from the program's weber.executor.* metrics: Begin
/// publishes a baseline into `registry`, End publishes again and reads the
/// window. Both must run while `registry` is the ambient registry.
struct ExecutorSample {
  double utilization = 0.0;
  double steals = 0.0;
};
uint64_t BeginExecutorWindow(weber::obs::MetricsRegistry& registry);
ExecutorSample EndExecutorWindow(weber::obs::MetricsRegistry& registry,
                                 uint64_t steals_baseline);

/// Workload entry points: each runs its workload for args.seconds,
/// checks the outputs and fills `report`.
void RunBatchMeta(const Args& args, Report& report);
void RunStreamDurable(const Args& args, Report& report);
void RunServeMixed(const Args& args, Report& report);

/// Client threads each workload drives (the driving thread counts as one).
inline constexpr size_t kServeWriters = 3;
inline constexpr size_t kServeReaders = 1;

}  // namespace weberbench

#endif  // WEBERBENCH_WORKLOADS_H_
