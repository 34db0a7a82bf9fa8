#include <cstring>

#include "core/executor.h"
#include "workloads.h"

namespace weberbench {

namespace {

template <size_t N>
void SetFrom(const MetricSpec (&table)[N], Report& report, const char* name,
             double value) {
  for (const MetricSpec& metric : table) {
    if (std::strcmp(metric.name, name) == 0) {
      report.Set(name, value, metric.unit);
      return;
    }
  }
  report.Check(false, std::string("unknown metric ") + name);
}

}  // namespace

void SetEndToEnd(Report& report, const char* name, double value) {
  SetFrom(kEndToEndMetrics, report, name, value);
}

void SetLayer(Report& report, const char* name, double value) {
  SetFrom(kLayerMetrics, report, name, value);
}

void SetLayerDefaults(Report& report) {
  for (const MetricSpec& metric : kLayerMetrics) {
    report.Set(metric.name, 0.0, metric.unit);
  }
}

uint64_t BeginExecutorWindow(weber::obs::MetricsRegistry& registry) {
  weber::core::Executor::Shared().PublishMetrics();
  return registry.GetCounter("weber.executor.steals").Value();
}

ExecutorSample EndExecutorWindow(weber::obs::MetricsRegistry& registry,
                                 uint64_t steals_baseline) {
  weber::core::Executor::Shared().PublishMetrics();
  ExecutorSample sample;
  sample.utilization = registry.GetGauge("weber.executor.utilization").Value();
  sample.steals = static_cast<double>(
      registry.GetCounter("weber.executor.steals").Value() - steals_baseline);
  return sample;
}

}  // namespace weberbench
