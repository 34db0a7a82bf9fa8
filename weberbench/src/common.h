// Shared pieces of the weber benchmark: arguments, order statistics, the
// result report, benchmark-side tracing spans and small file helpers.
// Everything here is benchmark code; the library is only reached through
// its public headers from the workload files.
#ifndef WEBERBENCH_COMMON_H_
#define WEBERBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/corpus_generator.h"
#include "matching/clustering.h"
#include "model/entity.h"
#include "model/ground_truth.h"

namespace weberbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 42;
  /// Length of the measured window.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// "full" (the canonical sizes) or "tiny" (the self-test sizes).
  std::string scale = "full";
  /// serve-mixed's open-loop Resolve rate during ingest (requests per
  /// second); README.md gives the measurements behind the default.
  double resolve_rate = 50.0;
  /// Scratch directory for data dirs, relative to the repository root the
  /// benchmark runs from.
  std::string work_dir = ".bench_work";
};

/// Linear-interpolation quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The samples as a space-separated list with millisecond precision.
std::string JoinSamples(const std::vector<double>& seconds);

/// Everything one run prints: the metrics with units, the operation
/// accounting, the output checks and free-form report lines.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// A human-readable line printed before the result (sample counts,
  /// generator lag, layer notes).
  void Note(const std::string& line) { notes_.push_back(line); }
  void Stamp(const std::string& key, const std::string& value) {
    stamps_[key] = value;
  }

  bool correct() const { return correct_; }

  /// Prints the stamp, notes and metric lines, then the result object as
  /// the last line of stdout.
  void Print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> stamps_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Benchmark-side spans around the calls into each layer. Spans nest by
/// scope on the driving thread; a span's self time is its duration minus
/// its children's. The root span of a traced repetition has no layer of
/// its own, so its self time is the residual no layer span accounts for.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Duration so far (seconds).
    double Elapsed() const { return SecondsSince(start_); }

   private:
    Tracer* tracer_;
    size_t index_;
    Clock::time_point start_;
  };

  /// Sum of the self time of every span with this name, in seconds.
  double SelfSeconds(const std::string& name) const;
  /// Self time of each span with this name, one entry per span.
  std::vector<double> SelfSamples(const std::string& name) const;

 private:
  struct Record {
    std::string name;
    int64_t parent = -1;
    double start = 0.0;  // Seconds since the tracer's epoch.
    double end = 0.0;
    double child_seconds = 0.0;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  int64_t open_ = -1;
};

/// GenerateDirty with the default CorpusConfig (Zipf 0.9, vocabulary
/// 3000) at `num_entities` entities and `seed`.
weber::datagen::Corpus GenerateDirty(size_t num_entities, uint64_t seed);

/// The collection cut into consecutive batches of `size` descriptions.
std::vector<std::vector<weber::model::EntityDescription>> SplitBatches(
    const weber::model::EntityCollection& collection, size_t size);

/// True when `clusters` holds every id in [0, n) exactly once.
bool PartitionsExactly(const weber::matching::Clusters& clusters, size_t n);

/// FNV-1a over an ordered pair list (the matches digest).
uint64_t PairsDigest(const std::vector<weber::model::IdPair>& pairs);

/// Empties and recreates `dir`.
void FreshDir(const std::string& dir);
/// Total bytes of the regular files under `dir` whose name starts with
/// `prefix` ("" = every file).
uint64_t DirBytes(const std::string& dir, const std::string& prefix = "");
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace weberbench

#endif  // WEBERBENCH_COMMON_H_
