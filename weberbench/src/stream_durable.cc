// stream-durable: core::RunPipeline in IncrementalMode with one writer —
// the delta token index plus the snapshot+WAL storage of the public
// storage::DurableResolver, with several checkpoint cycles per run.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/blocking_metrics.h"
#include "eval/match_metrics.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "storage/durable.h"
#include "storage/snapshot.h"
#include "workloads.h"

namespace weberbench {
namespace {

using namespace weber;

constexpr size_t kBatchSize = 64;
constexpr size_t kReopensPerRep = 2;

}  // namespace

void RunStreamDurable(const Args& args, Report& report) {
  const size_t num_entities = args.scale == "tiny" ? 400 : 20000;
  const datagen::Corpus corpus = GenerateDirty(num_entities, args.seed);
  const model::EntityCollection& collection = corpus.collection;
  const model::GroundTruth& truth = corpus.truth;
  const size_t n = collection.size();
  const std::vector<std::vector<model::EntityDescription>> batches =
      SplitBatches(collection, kBatchSize);
  // Several checkpoint cycles per run: four automatic ones plus the
  // pipeline's final checkpoint.
  const uint64_t snapshot_every = std::max<size_t>(1, batches.size() / 4);

  matching::TokenJaccardMatcher matcher;
  incremental::ResolverOptions resolver_options;
  resolver_options.match_threshold = kThreshold;
  resolver_options.index.max_block_size = 64;

  // The state a durable run holds before shutdown: the same batches
  // through an in-memory resolver (replay is deterministic).
  uint32_t reference_digest = 0;
  uint64_t reference_matches = 0;
  {
    incremental::IncrementalResolver reference(&matcher, resolver_options);
    for (const auto& batch : batches) reference.Ingest(batch);
    reference_digest = storage::SnapshotCodec::StateDigest(reference);
    reference_matches = PairsDigest(reference.matches());
  }

  const std::string dir = args.work_dir + "/stream-durable";
  core::IncrementalMode mode;
  mode.shards = 1;
  mode.batch_size = kBatchSize;
  mode.index = resolver_options.index;
  mode.data_dir = dir;
  mode.snapshot_every = snapshot_every;
  mode.fsync = storage::FsyncPolicy::kBatch;
  core::PipelineConfig config;
  config.incremental = mode;
  config.matcher = &matcher;
  config.match_threshold = kThreshold;

  storage::DurabilityOptions durability;
  durability.data_dir = dir;
  durability.snapshot_every = snapshot_every;
  durability.fsync = storage::FsyncPolicy::kBatch;

  std::vector<double> run_seconds;
  std::vector<double> setup_samples;
  double f1 = 0.0;
  double pc = 0.0;
  uint64_t disk = 0;

  // One untraced repetition: the pipeline into a fresh data dir, then
  // reopens of that dir, each checked against the reference state.
  auto untraced_rep = [&]() {
    FreshDir(dir);
    report.Attempt();
    Clock::time_point start = Clock::now();
    core::PipelineResult result = core::RunPipeline(collection, truth, config);
    run_seconds.push_back(SecondsSince(start));
    bool ok = PairsDigest(result.matches) == reference_matches &&
              PartitionsExactly(result.clusters, n);
    if (!ok) report.Fail();
    report.Check(ok, "stream-durable run reproduces the reference matches");
    if (run_seconds.size() == 1) {
      // Every run reproduces the same matches, so quality and the
      // data-dir size are read once.
      f1 = eval::EvaluateClusters(result.clusters, truth).F1();
      pc = result.blocking_quality.PairCompleteness();
      disk = DirBytes(dir);
    }

    for (size_t r = 0; r < kReopensPerRep; ++r) {
      report.Attempt();
      Clock::time_point open_start = Clock::now();
      storage::DurableResolver reopened(&matcher, resolver_options, durability);
      bool healthy = reopened.recovery_status().ok();
      setup_samples.push_back(SecondsSince(open_start));
      bool same = healthy && storage::SnapshotCodec::StateDigest(
                                 reopened.resolver()) == reference_digest;
      if (!same) report.Fail();
      report.Check(same, "stream-durable reopened digest equals the digest "
                         "before shutdown");
    }
  };

  Clock::time_point window = Clock::now();
  if (!args.trace) {
    do {
      untraced_rep();
    } while (SecondsSince(window) < args.seconds || run_seconds.size() < 3);
    std::filesystem::remove_all(dir);

    std::vector<double> latency_ms;
    for (double s : run_seconds) latency_ms.push_back(s * 1e3);
    SetEndToEnd(report, "desc_per_s",
                static_cast<double>(n) / Median(run_seconds));
    SetEndToEnd(report, "f1", f1);
    SetEndToEnd(report, "pc", pc);
    SetEndToEnd(report, "setup_s", Median(setup_samples));
    SetEndToEnd(report, "disk_bytes_per_desc",
                static_cast<double>(disk) / static_cast<double>(n));
    SetEndToEnd(report, "ingest_p50_ms", Quantile(latency_ms, 0.5));
    SetEndToEnd(report, "peak_rss_mb", PeakRssMb());
    report.Note("samples ingest=" + std::to_string(run_seconds.size()) +
                " (one RunPipeline call each) setup=" +
                std::to_string(setup_samples.size()));
    report.Note("run seconds " + JoinSamples(run_seconds));
    report.Note("setup seconds " + JoinSamples(setup_samples));
    report.Note("descriptions " + std::to_string(n) + ", checkpoint every " +
                std::to_string(snapshot_every) + " of " +
                std::to_string(batches.size()) + " batches");
    return;
  }

  // Traced run: untraced repetitions alternate with a replica of the
  // pipeline's incremental path driven through DurableResolver's public
  // calls, checkpointing explicitly at the ops where snapshot_every would.
  SetLayerDefaults(report);
  Tracer tracer;
  obs::MetricsRegistry registry;
  incremental::ResolverOptions traced_options = resolver_options;
  traced_options.metrics = &registry;
  storage::DurabilityOptions traced_durability = durability;
  traced_durability.snapshot_every = 0;

  std::vector<double> traced;
  std::vector<double> ingest_ms;
  std::vector<double> recover_s;
  std::vector<double> utilization;
  std::vector<double> steals;
  double ingest_seconds = 0.0;
  uint64_t comparisons = 0, candidates = 0, matches = 0, updates = 0;
  uint64_t assignments = 0, snapshot_bytes = 0, replayed = 0;
  uint64_t wal_bytes = 0, wal_fsyncs = 0;
  do {
    untraced_rep();
    FreshDir(dir);
    obs::ScopedRegistry attach(&registry);
    uint64_t baseline = BeginExecutorWindow(registry);
    uint64_t wal_bytes0 =
        registry.GetCounter("weber.storage.wal.appended_bytes").Value();
    uint64_t fsyncs0 = registry.GetCounter("weber.storage.wal.fsyncs").Value();
    report.Attempt();
    std::unique_ptr<storage::DurableResolver> durable;
    {
      Tracer::Span rep(&tracer, "rep");
      durable = std::make_unique<storage::DurableResolver>(
          &matcher, traced_options, traced_durability);
      uint64_t generation = 0;
      for (const auto& batch : batches) {
        {
          Tracer::Span span(&tracer, "incremental.ingest");
          durable->Ingest(batch);
          ingest_ms.push_back(span.Elapsed() * 1e3);
          ingest_seconds += span.Elapsed();
        }
        if (durable->op_count() - generation >= snapshot_every) {
          Tracer::Span span(&tracer, "storage.checkpoint");
          report.Check(durable->Checkpoint().ok(),
                       "stream-durable traced checkpoint");
          generation = durable->op_count();
        }
      }
      incremental::IncrementalResolver& resolver = durable->resolver();
      blocking::BlockCollection blocks;
      {
        Tracer::Span span(&tracer, "blocking.build");
        blocks = resolver.IndexBlocks(&resolver.store().collection());
      }
      {
        Tracer::Span span(&tracer, "eval.block_quality");
        eval::EvaluateBlocks(blocks, truth);
      }
      {
        Tracer::Span span(&tracer, "matching.cluster");
        resolver.Clusters();
      }
      {
        Tracer::Span span(&tracer, "storage.checkpoint");
        report.Check(durable->Checkpoint().ok(),
                     "stream-durable traced final checkpoint");
      }
      traced.push_back(rep.Elapsed());
      assignments = 0;
      for (const blocking::Block& block : blocks.blocks()) {
        assignments += block.size();
      }
    }
    ExecutorSample sample = EndExecutorWindow(registry, baseline);
    utilization.push_back(sample.utilization);
    steals.push_back(sample.steals);
    wal_bytes = registry.GetCounter("weber.storage.wal.appended_bytes").Value() -
                wal_bytes0;
    wal_fsyncs = registry.GetCounter("weber.storage.wal.fsyncs").Value() - fsyncs0;

    const incremental::IncrementalResolver& resolver = durable->resolver();
    comparisons = resolver.comparisons();
    candidates = resolver.candidates();
    matches = resolver.matches().size();
    updates = resolver.index_stats().updates;
    bool same = storage::SnapshotCodec::StateDigest(resolver) == reference_digest;
    if (!same) report.Fail();
    report.Check(same, "stream-durable traced replica matches the reference");
    durable.reset();
    snapshot_bytes = DirBytes(dir, "snapshot");

    report.Attempt();
    {
      Tracer::Span span(&tracer, "storage.recover");
      storage::DurableResolver reopened(&matcher, traced_options,
                                        traced_durability);
      recover_s.push_back(span.Elapsed());
      replayed = reopened.replayed_records();
      bool ok = reopened.recovery_status().ok() &&
                storage::SnapshotCodec::StateDigest(reopened.resolver()) ==
                    reference_digest;
      if (!ok) report.Fail();
      report.Check(ok, "stream-durable traced reopen equals the reference");
    }
  } while (SecondsSince(window) < args.seconds || traced.size() < 2);
  std::filesystem::remove_all(dir);

  const double reps = static_cast<double>(traced.size());
  auto per_rep = [&](const char* span) {
    return tracer.SelfSeconds(span) / reps;
  };
  const double dn = static_cast<double>(n);
  SetLayer(report, "blocking.build_s", per_rep("blocking.build"));
  SetLayer(report, "blocking.block_assignments", static_cast<double>(assignments));
  SetLayer(report, "eval.block_quality_s", per_rep("eval.block_quality"));
  SetLayer(report, "matching.comparisons", static_cast<double>(comparisons));
  SetLayer(report, "matching.pairs_per_s",
           static_cast<double>(comparisons) * reps / ingest_seconds);
  SetLayer(report, "matching.match_ratio",
           static_cast<double>(matches) / static_cast<double>(comparisons));
  SetLayer(report, "matching.cluster_s", per_rep("matching.cluster"));
  SetLayer(report, "core.executor.utilization", Median(utilization));
  SetLayer(report, "core.executor.steals", Median(steals));
  SetLayer(report, "incremental.ingest_batch_p50_ms", Quantile(ingest_ms, 0.5));
  SetLayer(report, "incremental.ingest_batch_p99_ms", Quantile(ingest_ms, 0.99));
  SetLayer(report, "incremental.candidates_per_desc",
           static_cast<double>(candidates) / dn);
  SetLayer(report, "incremental.index_updates_per_desc",
           static_cast<double>(updates) / dn);
  SetLayer(report, "storage.checkpoint_s", per_rep("storage.checkpoint"));
  SetLayer(report, "storage.snapshot_bytes", static_cast<double>(snapshot_bytes));
  SetLayer(report, "storage.wal_bytes", static_cast<double>(wal_bytes));
  SetLayer(report, "storage.wal_fsyncs", static_cast<double>(wal_fsyncs));
  SetLayer(report, "storage.recover_s", Median(recover_s));
  SetLayer(report, "storage.replayed_records", static_cast<double>(replayed));
  SetLayer(report, "residual_s", per_rep("rep"));
  SetLayer(report, "trace_overhead", Median(run_seconds) / Median(traced));
  report.Note("traced repetitions " + std::to_string(traced.size()) +
              ", untraced " + std::to_string(run_seconds.size()) +
              ", ingest batch samples " + std::to_string(ingest_ms.size()));
}

}  // namespace weberbench
