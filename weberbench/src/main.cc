// weberbench: one command for the weber benchmark's workloads.
//
//   weberbench --workload batch-meta|stream-durable|serve-mixed
//              [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//              [--resolve-rate R]
//
// Run from the repository root: data dirs go to .bench_work/ there. Prints
// report lines, then one JSON result object as the last line of stdout.
// Exits 1 when an output check fails and 2 on a usage error.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/executor.h"
#include "util/intersect.h"
#include "workloads.h"

namespace {

using weberbench::Args;

struct WorkloadEntry {
  const char* name;
  void (*run)(const Args&, weberbench::Report&);
  /// Client threads the workload drives, the driving thread included.
  size_t client_threads;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"batch-meta", weberbench::RunBatchMeta, 1},
    {"stream-durable", weberbench::RunStreamDurable, 1},
    {"serve-mixed", weberbench::RunServeMixed,
     weberbench::kServeWriters + weberbench::kServeReaders},
};

int Usage(const std::string& message) {
  std::cerr << "weberbench: " << message << "\n"
            << "usage: weberbench --workload batch-meta|stream-durable|"
               "serve-mixed [--seed N] [--seconds S] [--trace 0|1] "
               "[--scale full|tiny] [--resolve-rate R]\n";
  return 2;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args.seconds <= 0) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--resolve-rate") {
      args.resolve_rate = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args.resolve_rate <= 0) {
        return Usage("bad --resolve-rate " + value);
      }
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        return Usage("bad --scale " + value);
      }
      args.scale = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }

  const WorkloadEntry* workload = nullptr;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (args.workload == entry.name) workload = &entry;
  }
  if (workload == nullptr) return Usage("unknown workload '" + args.workload + "'");

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < static_cast<long>(workload->client_threads)) {
    std::cerr << "weberbench: " << workload->name << " drives "
              << workload->client_threads << " client threads but only "
              << nproc << " CPUs are online; refusing to run\n";
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  weberbench::Report report;
  report.Stamp("workload", workload->name);
  report.Stamp("seed", std::to_string(args.seed));
  report.Stamp("seconds", std::to_string(args.seconds));
  report.Stamp("trace", args.trace ? "1" : "0");
  report.Stamp("scale", args.scale);
  report.Stamp("resolve_rate", std::to_string(args.resolve_rate));
  report.Stamp("nproc", std::to_string(nproc));
  report.Stamp("client_threads", std::to_string(workload->client_threads));
  report.Stamp("executor_workers",
               std::to_string(weber::core::Executor::Shared().num_workers()));
  report.Stamp("compiler", CompilerName());
  report.Stamp("build_type", WEBERBENCH_BUILD_TYPE);
  // The level weber.matching.kernel.level publishes.
  report.Stamp("weber.matching.kernel.level",
               weber::util::KernelName(weber::util::ActiveIntersectKernel()));

  workload->run(args, report);
  report.Print();
  return report.correct() ? 0 : 1;
}
