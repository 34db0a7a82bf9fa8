// serve-mixed: serve::ShardedResolveService with reads beside writes —
// three closed-loop ingest clients and one open-loop Resolve client over
// durable per-shard WALs, then a drain and a WAL-only reopen.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/blocking_metrics.h"
#include "eval/match_metrics.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/sharded_resolver.h"
#include "util/random.h"
#include "workloads.h"

namespace weberbench {
namespace {

using namespace weber;

constexpr size_t kRequestSize = 64;
constexpr size_t kShards = 4;
/// Idle Resolve calls after the drain: groups x calls per group.
constexpr size_t kIdleGroups = 256;
constexpr size_t kIdleGroupSize = 32;
constexpr model::EntityId kNotAcked = ~model::EntityId{0};

bool HoldsSelf(const std::optional<
                   incremental::IncrementalResolver::Resolution>& resolution,
               model::EntityId id) {
  return resolution.has_value() &&
         std::find(resolution->members.begin(), resolution->members.end(),
                   id) != resolution->members.end();
}

/// The truth in service ids: datagen index i became id_of[i] when its
/// request was acknowledged.
model::GroundTruth TruthInServiceIds(const model::GroundTruth& truth,
                                     const std::vector<model::EntityId>& id_of) {
  model::GroundTruth mapped;
  for (const auto& cluster : truth.Clusters()) {
    model::EntityId first = kNotAcked;
    for (model::EntityId index : cluster) {
      model::EntityId id = id_of[index];
      if (id == kNotAcked) continue;
      if (first == kNotAcked) {
        first = id;
      } else {
        mapped.AddMatch(first, id);
      }
    }
  }
  return mapped;
}

/// What one repetition measured and checked.
struct RepResult {
  double ingest_wall = 0.0;  // First send until drained.
  double setup_seconds = 0.0;
  std::vector<double> ingest_ms;
  std::vector<double> resolve_us;
  std::vector<double> lag_ms;
  uint64_t acked = 0;
  uint64_t batches = 0;
  uint64_t shed = 0;
  uint64_t disk = 0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t replayed = 0;
  uint64_t comparisons = 0;
  uint64_t candidates = 0;
  uint64_t matches = 0;
  uint64_t updates = 0;
  uint64_t assignments = 0;
  std::vector<double> idle_resolve_us;
};

class ServeMixed {
 public:
  ServeMixed(const Args& args, Report& report)
      : args_(args),
        report_(report),
        corpus_(GenerateDirty(args.scale == "tiny" ? 400 : 20000, args.seed)),
        requests_(SplitBatches(corpus_.collection, kRequestSize)),
        dir_(args.work_dir + "/serve-mixed") {
    options_.max_batch = 256;
    options_.resolver.shards = kShards;
    options_.resolver.match_threshold = kThreshold;
    options_.resolver.index.max_block_size = 64;
    options_.resolver.data_dir = dir_;
    options_.resolver.fsync = storage::FsyncPolicy::kBatch;
  }

  size_t size() const { return corpus_.collection.size(); }
  const std::vector<std::vector<model::EntityDescription>>& requests() const {
    return requests_;
  }
  const serve::ShardedResolverOptions& resolver_options() const {
    return options_.resolver;
  }
  const matching::Matcher& matcher() const { return matcher_; }
  double f1() const { return *f1_; }
  double pc() const { return *pc_; }

  /// One repetition: a fresh service, the client mix until every request
  /// is acknowledged, a drain, the output checks and a reopen. With a
  /// tracer, the calls after the drain run inside layer spans and the
  /// registry receives the program's weber.* metrics.
  RepResult Run(Tracer* tracer, obs::MetricsRegistry* registry) {
    RepResult out;
    FreshDir(dir_);
    serve::ShardedServiceOptions options = options_;
    options.resolver.metrics = registry;
    std::vector<model::EntityId> id_of(size(), kNotAcked);
    std::vector<model::EntityId> acked_ids;
    uint64_t digest = 0;
    {
      std::optional<Tracer::Span> rep;
      if (tracer != nullptr) rep.emplace(tracer, "rep");
      serve::ShardedResolveService service(&matcher_, options);
      report_.Check(service.recovery_status().ok(),
                    "serve-mixed fresh service opens");
      // The client mix has no layer span of its own: its time is the
      // repetition's residual.
      Clock::time_point start = Clock::now();
      DriveClients(service, id_of, out);
      service.BeginShutdown();
      service.Drain();
      out.ingest_wall = SecondsSince(start);
      out.batches = service.batches_run();
      out.shed = service.shed();
      for (model::EntityId id : id_of) {
        if (id != kNotAcked) acked_ids.push_back(id);
      }
      out.acked = acked_ids.size();
      model::GroundTruth truth = TruthInServiceIds(corpus_.truth, id_of);
      serve::ShardedResolver& resolver = service.resolver();
      matching::Clusters clusters;
      {
        std::optional<Tracer::Span> span;
        if (tracer != nullptr) span.emplace(tracer, "matching.cluster");
        clusters = service.Clusters();
      }
      // Quality (f1, pc) is read on the first repetition; traced ones
      // repeat the calls for their spans. The evaluation costs about as
      // much as the ingest itself, so skipping it leaves room for more
      // repetitions.
      const bool quality = tracer != nullptr || !f1_.has_value();
      model::EntityCollection snapshot;
      blocking::BlockCollection blocks;
      if (quality) {
        std::optional<Tracer::Span> span;
        if (tracer != nullptr) span.emplace(tracer, "blocking.build");
        snapshot = resolver.CollectionSnapshot();
        blocks = resolver.IndexBlocks(&snapshot);
      }
      eval::BlockingQuality block_quality;
      if (quality) {
        std::optional<Tracer::Span> span;
        if (tracer != nullptr) span.emplace(tracer, "eval.block_quality");
        block_quality = eval::EvaluateBlocks(blocks, truth);
      }
      {
        std::optional<Tracer::Span> span;
        if (tracer != nullptr) span.emplace(tracer, "storage.checkpoint");
        report_.Check(resolver.Checkpoint().ok(),
                      "serve-mixed checkpoint after drain");
      }
      rep.reset();
      if (quality && !f1_.has_value()) {
        f1_ = eval::EvaluateClusters(clusters, truth).F1();
        pc_ = block_quality.PairCompleteness();
      }
      for (const blocking::Block& block : blocks.blocks()) {
        out.assignments += block.size();
      }
      out.comparisons = resolver.comparisons();
      out.candidates = resolver.candidates();
      out.matches = resolver.matches().size();
      out.updates = resolver.IndexStats().updates;
      digest = resolver.StateDigest();
      report_.Check(PartitionsExactly(clusters, resolver.size()),
                    "serve-mixed clusters partition the acknowledged ids");

      if (tracer != nullptr) {
        // Idle Resolve latency: the same service with no ingest running.
        // A call takes under a microsecond, near the clock's resolution,
        // so calls are timed in groups and each group's mean per-call time
        // is one sample.
        util::Rng rng(args_.seed + 1);
        uint64_t misses = 0;
        uint64_t calls = 0;
        for (size_t g = 0; g < kIdleGroups && !acked_ids.empty(); ++g) {
          std::vector<model::EntityId> ids;
          for (size_t i = 0; i < kIdleGroupSize; ++i) {
            ids.push_back(acked_ids[rng.NextBounded(acked_ids.size())]);
          }
          Clock::time_point start = Clock::now();
          for (model::EntityId id : ids) {
            if (!HoldsSelf(service.Resolve(id), id)) ++misses;
          }
          out.idle_resolve_us.push_back(SecondsSince(start) * 1e6 /
                                        static_cast<double>(kIdleGroupSize));
          calls += ids.size();
        }
        report_.Attempt(calls);
        report_.Fail(misses);
        report_.Check(misses == 0, "serve-mixed idle resolves hold the id");
      }
    }
    out.disk = DirBytes(dir_);
    out.wal_bytes = DirBytes(dir_, "wal");
    out.snapshot_bytes = DirBytes(dir_, "snapshot");

    // Set-up: reopen the data dir until recovery reports ok.
    report_.Attempt();
    std::optional<Tracer::Span> recover;
    if (tracer != nullptr) recover.emplace(tracer, "storage.recover");
    Clock::time_point open_start = Clock::now();
    serve::ShardedResolver reopened(&matcher_, options.resolver);
    bool healthy = reopened.recovery_status().ok();
    out.setup_seconds = SecondsSince(open_start);
    recover.reset();
    out.replayed = reopened.osn();
    bool same = healthy && reopened.StateDigest() == digest;
    uint64_t unresolved = 0;
    for (model::EntityId id : acked_ids) {
      if (!HoldsSelf(reopened.Resolve(id), id)) ++unresolved;
    }
    if (!same || unresolved != 0) report_.Fail();
    report_.Check(same, "serve-mixed reopened digest equals the drained "
                        "service's digest");
    report_.Check(unresolved == 0,
                  "serve-mixed every acknowledged id resolves after reopen");
    return out;
  }

  void RemoveDir() const { std::filesystem::remove_all(dir_); }

 private:
  /// Three closed-loop writers share the request list in order; one
  /// open-loop reader resolves random acknowledged ids on a fixed
  /// schedule and times each from when it was due.
  void DriveClients(serve::ShardedResolveService& service,
                    std::vector<model::EntityId>& id_of, RepResult& out) {
    std::atomic<size_t> next{0};
    std::atomic<bool> writers_done{false};
    std::mutex acked_mu;
    std::vector<model::EntityId> acked;
    std::atomic<uint64_t> shed{0};
    std::vector<std::vector<double>> latencies(kServeWriters);

    auto writer = [&](size_t w) {
      for (;;) {
        size_t r = next.fetch_add(1);
        if (r >= requests_.size()) return;
        Clock::time_point start = Clock::now();
        serve::ShardedResolveService::IngestResult result =
            service.Ingest(requests_[r]);
        latencies[w].push_back(SecondsSince(start) * 1e3);
        if (result.status != serve::ServeErrc::kOk) {
          shed.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < result.ids.size(); ++i) {
          id_of[r * kRequestSize + i] = result.ids[i];
        }
        std::lock_guard<std::mutex> lock(acked_mu);
        acked.insert(acked.end(), result.ids.begin(), result.ids.end());
      }
    };

    uint64_t resolve_misses = 0;
    auto reader = [&]() {
      util::Rng rng(args_.seed);
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / args_.resolve_rate));
      // The schedule starts once the first id is acknowledged.
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(acked_mu);
          if (!acked.empty()) break;
        }
        if (writers_done.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      Clock::time_point base = Clock::now();
      for (uint64_t k = 0; !writers_done.load(); ++k) {
        Clock::time_point due = base + interval * static_cast<int64_t>(k);
        std::this_thread::sleep_until(due);
        if (writers_done.load()) break;
        Clock::time_point sent = Clock::now();
        model::EntityId id;
        {
          std::lock_guard<std::mutex> lock(acked_mu);
          id = acked[rng.NextBounded(acked.size())];
        }
        auto resolution = service.Resolve(id);
        Clock::time_point done = Clock::now();
        out.resolve_us.push_back(
            std::chrono::duration<double>(done - due).count() * 1e6);
        out.lag_ms.push_back(
            std::chrono::duration<double>(sent - due).count() * 1e3);
        if (!HoldsSelf(resolution, id)) ++resolve_misses;
      }
    };

    std::vector<std::thread> writers;
    for (size_t w = 0; w < kServeWriters; ++w) writers.emplace_back(writer, w);
    std::thread read_thread(reader);
    for (std::thread& t : writers) t.join();
    writers_done.store(true);
    read_thread.join();

    for (const auto& per_writer : latencies) {
      out.ingest_ms.insert(out.ingest_ms.end(), per_writer.begin(),
                           per_writer.end());
    }
    report_.Attempt(requests_.size() + out.resolve_us.size());
    report_.Fail(shed.load() + resolve_misses);
    report_.Check(resolve_misses == 0,
                  "serve-mixed no Resolve omits the queried id");
  }

  const Args& args_;
  Report& report_;
  datagen::Corpus corpus_;
  /// Cluster F1 and pair completeness of the first measured repetition.
  std::optional<double> f1_;
  std::optional<double> pc_;
  std::vector<std::vector<model::EntityDescription>> requests_;
  std::string dir_;
  matching::TokenJaccardMatcher matcher_;
  serve::ShardedServiceOptions options_;
};

std::vector<double> Concat(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*field) {
  std::vector<double> all;
  for (const RepResult& rep : reps) {
    all.insert(all.end(), (rep.*field).begin(), (rep.*field).end());
  }
  return all;
}

template <typename Fn>
std::vector<double> Each(const std::vector<RepResult>& reps, Fn&& fn) {
  std::vector<double> values;
  for (const RepResult& rep : reps) values.push_back(fn(rep));
  return values;
}

std::string Count(const std::vector<double>& samples) {
  return std::to_string(samples.size());
}

}  // namespace

void RunServeMixed(const Args& args, Report& report) {
  ServeMixed bench(args, report);
  const double n = static_cast<double>(bench.size());
  auto rate = [](const RepResult& rep) {
    return static_cast<double>(rep.acked) / rep.ingest_wall;
  };

  std::vector<RepResult> untraced;
  Clock::time_point window = Clock::now();
  if (!args.trace) {
    do {
      untraced.push_back(bench.Run(nullptr, nullptr));
    } while (SecondsSince(window) < args.seconds || untraced.size() < 3);
    bench.RemoveDir();

    std::vector<double> ingest_ms = Concat(untraced, &RepResult::ingest_ms);
    std::vector<double> resolve_us = Concat(untraced, &RepResult::resolve_us);
    std::vector<double> lag_ms = Concat(untraced, &RepResult::lag_ms);
    std::vector<double> setup =
        Each(untraced, [](const RepResult& r) { return r.setup_seconds; });
    SetEndToEnd(report, "desc_per_s", Median(Each(untraced, rate)));
    SetEndToEnd(report, "f1",
                bench.f1());
    SetEndToEnd(report, "pc",
                bench.pc());
    SetEndToEnd(report, "setup_s", Median(setup));
    SetEndToEnd(report, "disk_bytes_per_desc",
                Median(Each(untraced, [n](const RepResult& r) {
                  return static_cast<double>(r.disk) / n;
                })));
    SetEndToEnd(report, "ingest_p50_ms", Quantile(ingest_ms, 0.5));
    SetEndToEnd(report, "peak_rss_mb", PeakRssMb());
    report.Note("samples ingest=" + Count(ingest_ms) +
                " resolve=" + Count(resolve_us) + " setup=" + Count(setup) +
                " repetitions=" + std::to_string(untraced.size()));
    report.Note("tails (ungated, also serve.* in the traced run): ingest p99 " +
                std::to_string(Quantile(ingest_ms, 0.99)) +
                " ms; resolve during ingest p50 " +
                std::to_string(Quantile(resolve_us, 0.5)) + " us p99 " +
                std::to_string(Quantile(resolve_us, 0.99)) + " us");
    report.Note("open-loop resolve at " + std::to_string(args.resolve_rate) +
                "/s: generator lag p50=" + std::to_string(Quantile(lag_ms, 0.5)) +
                " ms p99=" + std::to_string(Quantile(lag_ms, 0.99)) +
                " ms max=" + std::to_string(Quantile(lag_ms, 1.0)) + " ms");
    report.Note("descriptions " + std::to_string(bench.size()) + ", shards " +
                std::to_string(kShards) + ", writers " +
                std::to_string(kServeWriters) + " x " +
                std::to_string(kRequestSize) + "-entity requests");
    return;
  }

  // Traced run: untraced and traced repetitions alternate.
  SetLayerDefaults(report);
  Tracer tracer;
  obs::MetricsRegistry registry;
  std::vector<RepResult> traced;
  std::vector<double> utilization;
  std::vector<double> steals;
  std::vector<double> direct_ms;
  do {
    untraced.push_back(bench.Run(nullptr, nullptr));
    obs::ScopedRegistry attach(&registry);
    uint64_t baseline = BeginExecutorWindow(registry);
    traced.push_back(bench.Run(&tracer, &registry));
    ExecutorSample sample = EndExecutorWindow(registry, baseline);
    utilization.push_back(sample.utilization);
    steals.push_back(sample.steals);
  } while (SecondsSince(window) < args.seconds || traced.size() < 2);

  // ShardedResolver::Ingest timed directly, on batches the size the
  // service's coalescing produced.
  {
    const RepResult& first = traced.front();
    size_t batch = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(first.acked) /
                                   static_cast<double>(first.batches) +
                               0.5));
    std::string dir = args.work_dir + "/serve-mixed-direct";
    FreshDir(dir);
    serve::ShardedResolverOptions options = bench.resolver_options();
    options.data_dir = dir;
    serve::ShardedResolver direct(&bench.matcher(), options);
    std::vector<model::EntityDescription> pending;
    for (const auto& request : bench.requests()) {
      for (const auto& description : request) {
        pending.push_back(description);
        if (pending.size() == batch) {
          Tracer::Span span(&tracer, "serve.resolver_batch");
          direct.Ingest(std::move(pending));
          direct_ms.push_back(span.Elapsed() * 1e3);
          pending.clear();
        }
      }
    }
    std::filesystem::remove_all(dir);
  }
  bench.RemoveDir();

  const double reps = static_cast<double>(traced.size());
  auto per_rep = [&](const char* span) {
    return tracer.SelfSeconds(span) / reps;
  };
  const RepResult& last = traced.back();
  // Client-observed latencies come from the untraced repetitions, which
  // run exactly as in the end-to-end run.
  std::vector<double> ingest_ms = Concat(untraced, &RepResult::ingest_ms);
  std::vector<double> resolve_us = Concat(untraced, &RepResult::resolve_us);
  std::vector<double> lag_ms = Concat(untraced, &RepResult::lag_ms);
  std::vector<double> idle_us = Concat(traced, &RepResult::idle_resolve_us);
  double ingest_seconds = 0.0;
  double total_comparisons = 0.0;
  for (const RepResult& rep : traced) {
    ingest_seconds += rep.ingest_wall;
    total_comparisons += static_cast<double>(rep.comparisons);
  }
  obs::HistogramSnapshot imbalance =
      registry.GetHistogram("weber.serve.shard_imbalance").Snapshot();

  SetLayer(report, "blocking.build_s", per_rep("blocking.build"));
  SetLayer(report, "blocking.block_assignments",
           static_cast<double>(last.assignments));
  SetLayer(report, "eval.block_quality_s", per_rep("eval.block_quality"));
  SetLayer(report, "matching.comparisons", static_cast<double>(last.comparisons));
  SetLayer(report, "matching.pairs_per_s", total_comparisons / ingest_seconds);
  SetLayer(report, "matching.match_ratio",
           static_cast<double>(last.matches) /
               static_cast<double>(last.comparisons));
  SetLayer(report, "matching.cluster_s", per_rep("matching.cluster"));
  SetLayer(report, "core.executor.utilization", Median(utilization));
  SetLayer(report, "core.executor.steals", Median(steals));
  SetLayer(report, "incremental.candidates_per_desc",
           static_cast<double>(last.candidates) / n);
  SetLayer(report, "incremental.index_updates_per_desc",
           static_cast<double>(last.updates) / n);
  SetLayer(report, "storage.checkpoint_s", per_rep("storage.checkpoint"));
  SetLayer(report, "storage.snapshot_bytes",
           static_cast<double>(last.snapshot_bytes));
  SetLayer(report, "storage.wal_bytes", static_cast<double>(last.wal_bytes));
  SetLayer(report, "storage.recover_s",
           Median(tracer.SelfSamples("storage.recover")));
  SetLayer(report, "storage.replayed_records", static_cast<double>(last.replayed));
  SetLayer(report, "serve.batches", static_cast<double>(last.batches));
  SetLayer(report, "serve.batch_entities",
           static_cast<double>(last.acked) / static_cast<double>(last.batches));
  SetLayer(report, "serve.shed", static_cast<double>(last.shed));
  SetLayer(report, "serve.resolver_batch_p50_ms", Quantile(direct_ms, 0.5));
  SetLayer(report, "serve.resolver_batch_p99_ms", Quantile(direct_ms, 0.99));
  SetLayer(report, "serve.queue_wait_ms",
           Quantile(ingest_ms, 0.5) - Quantile(direct_ms, 0.5));
  SetLayer(report, "serve.resolve_idle_p50_us", Quantile(idle_us, 0.5));
  SetLayer(report, "serve.resolve_idle_p99_us", Quantile(idle_us, 0.99));
  SetLayer(report, "serve.shard_imbalance", imbalance.Mean());
  SetLayer(report, "serve.ingest_p99_ms", Quantile(ingest_ms, 0.99));
  SetLayer(report, "serve.resolve_p50_us", Quantile(resolve_us, 0.5));
  SetLayer(report, "serve.resolve_p99_us", Quantile(resolve_us, 0.99));
  SetLayer(report, "serve.ingest_samples", static_cast<double>(ingest_ms.size()));
  SetLayer(report, "serve.resolve_samples",
           static_cast<double>(resolve_us.size()));
  SetLayer(report, "serve.generator_lag_p99_ms", Quantile(lag_ms, 0.99));
  SetLayer(report, "residual_s", per_rep("rep"));
  SetLayer(report, "trace_overhead",
           Median(Each(traced, rate)) / Median(Each(untraced, rate)));
  report.Note("traced repetitions " + std::to_string(traced.size()) +
              ", untraced " + std::to_string(untraced.size()) +
              ", direct resolver batches " + Count(direct_ms));
  report.Note("storage.wal_fsyncs reads 0: the sharded WAL path publishes no "
              "weber.storage.* counters");
}

}  // namespace weberbench
