// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload serve_read|serve_write|cngen_mondial --seed N
//             --seconds S [--trace 0|1] [--rate QPS] [--spans-out PATH]
//             [--git-rev REV] [--source-digest HEX]
//
// Human-readable lines first ("metric <name> <value> <unit> n=<samples>"),
// then one JSON line with every metric, the output-check verdict and the
// layers this workload does not pass through. perfbench/run.py builds
// this binary and turns that line into the benchmark's result line.

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "measure.h"
#include "simd/dispatch.h"
#include "workloads.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload serve_read|serve_write|"
               "cngen_mondial --seed N --seconds S [--trace 0|1] "
               "[--rate QPS] [--spans-out PATH] [--git-rev REV] "
               "[--source-digest HEX]\n";
  return 2;
}

/// CPUs this process may run on: the benchmark's thread and connection
/// budget.
unsigned AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.nproc = AllowedCpus();
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--rate") {
      opt.rate_qps = std::strtod(value.c_str(), &end);
    } else if (flag == "--spans-out") {
      opt.spans_path = value;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      return Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (opt.seconds <= 0 || opt.seconds > 600) return Usage("bad --seconds");

  std::cout << "host nproc=" << opt.nproc << " simd="
            << matcn::simd::LevelName(matcn::simd::ActiveLevel())
            << " git_rev=" << git_rev << " source_digest=" << source_digest
            << " build_type=" << PERFBENCH_BUILD_TYPE << "\n"
            << "run workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";

  const perfbench::CpuTicks before = perfbench::ReadCpuTicks();
  perfbench::RunResult result;
  bool ran = false;
  if (opt.workload == "serve_read" || opt.workload == "serve_write") {
    ran = perfbench::RunServe(opt, &result);
  } else if (opt.workload == "cngen_mondial") {
    ran = perfbench::RunBatch(opt, &result);
  } else {
    return Usage("unknown workload '" + opt.workload + "'");
  }
  if (!ran) return 1;
  const perfbench::CpuTicks after = perfbench::ReadCpuTicks();
  const double steal = after.total > before.total
                           ? 100.0 * static_cast<double>(after.steal -
                                                         before.steal) /
                                 static_cast<double>(after.total - before.total)
                           : 0;
  // Time the hypervisor ran others on this machine's CPUs: the figures of
  // a run with much of it are the host's, not the program's.
  std::cout << "host steal_pct=" << steal << "\n";
  if (steal > 5) std::cout << "FLAG host steal above 5% during the run\n";

  for (const std::string& p : result.problems) {
    std::cout << "CHECK FAILED " << p << "\n";
  }
  result.report.PrintLines(std::cout);
  if (!result.report.valid()) {
    std::cout << "CHECK FAILED a metric name broke [A-Za-z0-9_.-]+, "
                 "repeated, or a value was not finite\n";
    result.correct = false;
  }
  std::string absent = "[";
  for (size_t i = 0; i < result.absent_layers.size(); ++i) {
    if (i > 0) absent += ", ";
    absent += perfbench::JsonString(result.absent_layers[i]);
  }
  absent += "]";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"absent_layers\": " << absent
            << ", \"metrics\": " << result.report.MetricsJson() << "}"
            << std::endl;
  return 0;
}
