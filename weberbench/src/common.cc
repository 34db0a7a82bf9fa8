#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>

namespace weberbench {

namespace fs = std::filesystem;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string JoinSamples(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (double s : seconds) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ", s);
    out += buf;
  }
  return out;
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "weberbench: check failed: " << what << "\n";
}

void Report::Print() const {
  std::string stamp = "{";
  for (const auto& [key, value] : stamps_) {
    if (stamp.size() > 1) stamp += ", ";
    stamp += JsonString(key) + ": " + JsonString(value);
  }
  std::cout << "stamp " << stamp << "}\n";
  for (const std::string& note : notes_) std::cout << note << "\n";
  for (const auto& [name, metric] : metrics_) {
    std::cout << "metric " << name << " = " << JsonNumber(metric.value) << " "
              << metric.unit << "\n";
  }
  std::cout << "attempted " << attempted_ << " failed " << failed_
            << (correct_ ? " correct" : " INCORRECT") << "\n";

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()) {
  Record record;
  record.name = name;
  record.parent = tracer_->open_;
  record.start =
      std::chrono::duration<double>(start_ - tracer_->epoch_).count();
  index_ = tracer_->records_.size();
  tracer_->records_.push_back(std::move(record));
  tracer_->open_ = static_cast<int64_t>(index_);
}

Tracer::Span::~Span() {
  Record& record = tracer_->records_[index_];
  record.end =
      std::chrono::duration<double>(Clock::now() - tracer_->epoch_).count();
  if (record.parent >= 0) {
    tracer_->records_[static_cast<size_t>(record.parent)].child_seconds +=
        record.end - record.start;
  }
  tracer_->open_ = record.parent;
}

std::vector<double> Tracer::SelfSamples(const std::string& name) const {
  std::vector<double> samples;
  for (const Record& record : records_) {
    if (record.name == name) {
      samples.push_back(record.end - record.start - record.child_seconds);
    }
  }
  return samples;
}

double Tracer::SelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (double s : SelfSamples(name)) total += s;
  return total;
}

weber::datagen::Corpus GenerateDirty(size_t num_entities, uint64_t seed) {
  weber::datagen::CorpusConfig config;
  config.num_entities = num_entities;
  config.seed = seed;
  return weber::datagen::CorpusGenerator(config).GenerateDirty();
}

std::vector<std::vector<weber::model::EntityDescription>> SplitBatches(
    const weber::model::EntityCollection& collection, size_t size) {
  std::vector<std::vector<weber::model::EntityDescription>> batches;
  for (weber::model::EntityId id = 0; id < collection.size(); ++id) {
    if (id % size == 0) batches.emplace_back();
    batches.back().push_back(collection.at(id));
  }
  return batches;
}

bool PartitionsExactly(const weber::matching::Clusters& clusters, size_t n) {
  std::vector<uint8_t> seen(n, 0);
  size_t count = 0;
  for (const auto& cluster : clusters) {
    for (weber::model::EntityId id : cluster) {
      if (id >= n || seen[id] != 0) return false;
      seen[id] = 1;
      ++count;
    }
  }
  return count == n;
}

uint64_t PairsDigest(const std::vector<weber::model::IdPair>& pairs) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  };
  for (const weber::model::IdPair& pair : pairs) {
    mix(pair.low);
    mix(pair.high);
  }
  return hash;
}

void FreshDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += entry.file_size();
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace weberbench
