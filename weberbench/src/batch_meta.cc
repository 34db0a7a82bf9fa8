// batch-meta: the paper's web-scale blocking chain in one shot —
// TokenBlocking -> auto purge -> meta-blocking (JS, WNP) -> prepared
// matching -> connected components — through core::RunPipeline.
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "core/pipeline.h"
#include "eval/blocking_metrics.h"
#include "eval/match_metrics.h"
#include "matching/match_graph.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "metablocking/pruning_schemes.h"
#include "model/io.h"
#include "obs/metrics.h"
#include "progressive/scheduler.h"
#include "workloads.h"

namespace weberbench {
namespace {

using namespace weber;

/// Corpora per run, used in rotation.
constexpr size_t kParts = 4;

/// What one traced repetition of the chain produced.
struct ChainResult {
  std::vector<model::IdPair> matches;
  matching::Clusters clusters;
  eval::BlockingQuality quality;
  uint64_t block_assignments = 0;
  uint64_t candidates = 0;
  uint64_t comparisons = 0;
};

/// RunPipeline's batch phases called one by one through each layer's
/// public entry point, with a span around every call.
ChainResult RunTracedChain(const model::EntityCollection& collection,
                           const model::GroundTruth& truth,
                           const blocking::TokenBlocking& blocker,
                           const matching::Matcher& matcher, Tracer& tracer) {
  ChainResult out;
  blocking::BlockCollection blocks;
  {
    Tracer::Span span(&tracer, "blocking.build");
    blocks = blocker.Build(collection);
  }
  {
    Tracer::Span span(&tracer, "blocking.purge");
    blocking::AutoPurgeBlocks(blocks);
  }
  {
    Tracer::Span span(&tracer, "eval.block_quality");
    out.quality = eval::EvaluateBlocks(blocks, truth);
  }
  for (const blocking::Block& block : blocks.blocks()) {
    out.block_assignments += block.size();
  }
  std::vector<model::IdPair> candidates;
  {
    Tracer::Span span(&tracer, "metablocking.metablock");
    candidates = metablocking::MetaBlock(blocks, metablocking::WeightScheme::kJs,
                                         metablocking::PruningScheme::kWnp);
  }
  out.candidates = candidates.size();
  progressive::StaticListScheduler scheduler(std::move(candidates));
  std::optional<matching::SignatureStore> signatures;
  std::unique_ptr<matching::PreparedMatcher> prepared;
  {
    Tracer::Span span(&tracer, "matching.prepare");
    signatures.emplace(matching::SignatureStore::Build(
        collection, matching::OptionsFor(matcher)));
    prepared = matching::Prepare(matcher, *signatures);
  }
  matching::ThresholdMatcher threshold_matcher(&matcher, kThreshold);
  {
    Tracer::Span span(&tracer, "progressive.run");
    progressive::ProgressiveRunResult run = progressive::RunProgressive(
        collection, scheduler, threshold_matcher,
        std::numeric_limits<uint64_t>::max(), truth, prepared.get());
    out.comparisons = run.comparisons;
    out.matches = std::move(run.reported);
  }
  {
    Tracer::Span span(&tracer, "matching.cluster");
    matching::MatchGraph graph(collection.size());
    for (const model::IdPair& pair : out.matches) {
      graph.AddMatch(pair.low, pair.high);
    }
    out.clusters = matching::ConnectedComponents(graph);
  }
  return out;
}

/// One input corpus of the rotation and what its first run produced.
struct Part {
  std::string path;  // Without the .nt / .truth extension.
  size_t size = 0;
  datagen::Corpus corpus;
  std::optional<uint64_t> reference;  // Matches digest of the first run.
  std::vector<model::IdPair> matches;
  double f1 = 0.0;
  double pc = 0.0;
};

}  // namespace

void RunBatchMeta(const Args& args, Report& report) {
  const size_t num_entities = args.scale == "tiny" ? 300 : 4000;

  // The input: kParts dirty corpora from seeds derived from --seed, used in
  // rotation, so a run's figures average over several inputs instead of
  // resting on one corpus's block-size profile. Set-up is what a batch job
  // does first, reading its input: the corpora are written once as
  // N-Triples plus truth files, and each run parses its corpus back first.
  // One set-up sample is the parse time of a whole rotation.
  const std::string dir = args.work_dir + "/batch-meta";
  FreshDir(dir);
  std::vector<double> setup_samples;
  std::vector<Part> parts(kParts);
  auto load = [&](size_t index) {
    Part& part = parts[index];
    Clock::time_point start = Clock::now();
    std::ifstream corpus_in(part.path + ".nt");
    size_t skipped = 0;
    part.corpus.collection = model::ReadNTriples(corpus_in, &skipped);
    std::ifstream truth_in(part.path + ".truth");
    part.corpus.truth = model::ReadGroundTruth(truth_in, part.corpus.collection);
    double seconds = SecondsSince(start);
    report.Check(skipped == 0 && part.corpus.collection.size() == part.size,
                 "batch-meta input parses back whole");
    return seconds;
  };
  for (size_t i = 0; i < kParts; ++i) {
    datagen::Corpus generated =
        GenerateDirty(num_entities, args.seed * kParts + i);
    parts[i].path = dir + "/corpus-" + std::to_string(i);
    parts[i].size = generated.collection.size();
    std::ofstream corpus_out(parts[i].path + ".nt");
    model::WriteNTriples(generated.collection, corpus_out);
    std::ofstream truth_out(parts[i].path + ".truth");
    model::WriteGroundTruth(generated.truth, generated.collection, truth_out);
  }
  double first_setup = 0.0;
  for (size_t i = 0; i < kParts; ++i) first_setup += load(i);
  setup_samples.push_back(first_setup);

  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig config;
  config.blocker = &blocker;
  config.auto_purge = true;
  config.meta_blocking = {metablocking::WeightScheme::kJs,
                          metablocking::PruningScheme::kWnp};
  config.matcher = &matcher;
  config.match_threshold = kThreshold;

  // Warm-up (executor start, allocator growth) on the first corpus.
  report.Attempt();
  core::RunPipeline(parts[0].corpus.collection, parts[0].corpus.truth, config);

  // One timed run of corpus `index`. Its first run defines the corpus's
  // reference matches and quality; every later run must reproduce them.
  auto timed_run = [&](size_t index) {
    Part& part = parts[index];
    report.Attempt();
    Clock::time_point start = Clock::now();
    core::PipelineResult result =
        core::RunPipeline(part.corpus.collection, part.corpus.truth, config);
    double seconds = SecondsSince(start);
    uint64_t digest = PairsDigest(result.matches);
    if (!part.reference.has_value()) {
      part.reference = digest;
      part.f1 = eval::EvaluateClusters(result.clusters, part.corpus.truth).F1();
      part.pc = result.blocking_quality.PairCompleteness();
      part.matches = std::move(result.matches);
    }
    bool ok = digest == *part.reference &&
              PartitionsExactly(result.clusters, part.size);
    if (!ok) report.Fail();
    report.Check(ok, "batch-meta run reproduces the corpus's matches and "
                     "partitions the input exactly once");
    return seconds;
  };

  // Runs go in whole rotations, so every corpus runs equally often.
  std::vector<std::vector<double>> untraced(kParts);
  size_t untraced_runs = 0;
  auto untraced_rep = [&](size_t index) {
    untraced[index].push_back(timed_run(index));
    ++untraced_runs;
  };
  // Descriptions of one rotation over the sum of each corpus's median run.
  auto rotation_rate = [&](const std::vector<std::vector<double>>& seconds_of) {
    double descriptions = 0.0, seconds = 0.0;
    for (size_t i = 0; i < kParts; ++i) {
      descriptions += static_cast<double>(parts[i].size);
      seconds += Median(seconds_of[i]);
    }
    return descriptions / seconds;
  };
  Clock::time_point window = Clock::now();
  if (!args.trace) {
    do {
      double setup = 0.0;
      for (size_t i = 0; i < kParts; ++i) {
        setup += load(i);
        untraced_rep(i);
      }
      setup_samples.push_back(setup);
    } while (SecondsSince(window) < args.seconds);

    // Disk: the resolved links (the closure of the matches) as the
    // library's model::WriteGroundTruth writes them.
    double f1 = 0.0, pc = 0.0, descriptions = 0.0;
    for (size_t i = 0; i < kParts; ++i) {
      const Part& part = parts[i];
      model::GroundTruth links;
      for (const model::IdPair& pair : part.matches) {
        links.AddMatch(pair.low, pair.high);
      }
      std::ofstream out(dir + "/links-" + std::to_string(i) + ".txt");
      model::WriteGroundTruth(links, part.corpus.collection, out);
      f1 += part.f1 / kParts;
      pc += part.pc / kParts;
      descriptions += static_cast<double>(part.size);
    }
    uint64_t disk = DirBytes(dir, "links");
    std::filesystem::remove_all(dir);

    double median_ms = 0.0;
    std::string run_seconds;
    for (size_t i = 0; i < kParts; ++i) {
      median_ms += Median(untraced[i]) * 1e3 / kParts;
      run_seconds += " corpus " + std::to_string(i) + ": " +
                     JoinSamples(untraced[i]) + ";";
    }
    SetEndToEnd(report, "desc_per_s", rotation_rate(untraced));
    SetEndToEnd(report, "f1", f1);
    SetEndToEnd(report, "pc", pc);
    SetEndToEnd(report, "setup_s", Median(setup_samples));
    SetEndToEnd(report, "disk_bytes_per_desc",
                static_cast<double>(disk) / descriptions);
    SetEndToEnd(report, "ingest_p50_ms", median_ms);
    SetEndToEnd(report, "peak_rss_mb", PeakRssMb());
    report.Note("samples ingest=" + std::to_string(untraced_runs) +
                " (one RunPipeline call each, " +
                std::to_string(untraced_runs / kParts) +
                " per corpus) setup=" + std::to_string(setup_samples.size()) +
                " (one per rotation)");
    report.Note("run seconds" + run_seconds);
    report.Note("setup seconds " + JoinSamples(setup_samples));
    std::string sizes;
    for (const Part& part : parts) sizes += " " + std::to_string(part.size);
    report.Note("corpora " + std::to_string(kParts) + ", descriptions" + sizes);
    return;
  }

  // Traced run: untraced and traced repetitions alternate on the same
  // corpus, so the tracing overhead is measured under the same conditions.
  SetLayerDefaults(report);
  Tracer tracer;
  obs::MetricsRegistry registry;
  std::vector<std::vector<double>> traced(kParts);
  std::vector<double> utilization;
  std::vector<double> steals;
  double assignments = 0.0, candidates = 0.0, block_pairs = 0.0;
  double comparisons = 0.0, matches = 0.0, descriptions = 0.0;
  size_t traced_runs = 0;
  do {
    size_t index = traced_runs++ % kParts;
    const Part& part = parts[index];
    untraced_rep(index);
    obs::ScopedRegistry attach(&registry);
    uint64_t baseline = BeginExecutorWindow(registry);
    report.Attempt();
    ChainResult chain;
    {
      Tracer::Span rep(&tracer, "rep");
      chain = RunTracedChain(part.corpus.collection, part.corpus.truth,
                             blocker, matcher, tracer);
      traced[index].push_back(rep.Elapsed());
    }
    ExecutorSample sample = EndExecutorWindow(registry, baseline);
    utilization.push_back(sample.utilization);
    steals.push_back(sample.steals);
    bool ok = PairsDigest(chain.matches) == *part.reference;
    if (!ok) report.Fail();
    report.Check(ok, "batch-meta matches digest equal between timed and "
                     "traced runs");
    assignments += static_cast<double>(chain.block_assignments);
    candidates += static_cast<double>(chain.candidates);
    block_pairs += static_cast<double>(chain.quality.comparisons);
    comparisons += static_cast<double>(chain.comparisons);
    matches += static_cast<double>(chain.matches.size());
    descriptions += static_cast<double>(part.size);
  } while (SecondsSince(window) < args.seconds || traced_runs % kParts != 0);
  std::filesystem::remove_all(dir);

  const double reps = static_cast<double>(traced_runs);
  auto per_rep = [&](const char* span) {
    return tracer.SelfSeconds(span) / reps;
  };
  SetLayer(report, "blocking.build_s", per_rep("blocking.build"));
  SetLayer(report, "blocking.purge_s", per_rep("blocking.purge"));
  SetLayer(report, "blocking.block_assignments", assignments / reps);
  SetLayer(report, "eval.block_quality_s", per_rep("eval.block_quality"));
  SetLayer(report, "metablocking.metablock_s", per_rep("metablocking.metablock"));
  SetLayer(report, "metablocking.kept_ratio", candidates / block_pairs);
  SetLayer(report, "matching.prepare_s", per_rep("matching.prepare"));
  SetLayer(report, "progressive.run_s", per_rep("progressive.run"));
  SetLayer(report, "matching.comparisons", comparisons / reps);
  SetLayer(report, "matching.pairs_per_s",
           comparisons / tracer.SelfSeconds("progressive.run"));
  SetLayer(report, "matching.match_ratio", matches / comparisons);
  SetLayer(report, "matching.cluster_s", per_rep("matching.cluster"));
  SetLayer(report, "core.executor.utilization", Median(utilization));
  SetLayer(report, "core.executor.steals", Median(steals));
  SetLayer(report, "incremental.candidates_per_desc", candidates / descriptions);
  SetLayer(report, "residual_s", per_rep("rep"));
  SetLayer(report, "trace_overhead",
           rotation_rate(traced) / rotation_rate(untraced));
  report.Note("traced repetitions " + std::to_string(traced_runs) +
              ", untraced " + std::to_string(untraced_runs));
}

}  // namespace weberbench
