#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// The traced run: span recorder on, hidden layers replayed.
  bool trace = false;
  /// Serve workloads: offered rate of the fixed-rate phase.
  double rate_qps = 0;
  /// Threads and connections the benchmark may use.
  unsigned nproc = 1;
  /// Where the traced run writes its spans at exit.
  std::string spans_path;
};

struct RunResult {
  /// Every output check passed.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
  /// Layers this workload does not pass through; their per-layer metrics
  /// read 0 by definition.
  std::vector<std::string> absent_layers;
  /// One line per failed output check.
  std::vector<std::string> problems;

  /// Records a failed check; the message is the concatenated parts.
  template <typename... Parts>
  void Problem(const Parts&... parts) {
    correct = false;
    if (problems.size() >= 20) return;
    std::string what;
    (what += ... += parts);
    problems.push_back(std::move(what));
  }
};

/// serve_read / serve_write: the live-index stack served over TCP.
/// Returns false when the run could not be carried out at all.
bool RunServe(const RunOptions& options, RunResult* result);

/// cngen_mondial: MatCnGen::Generate over Mondial in process.
bool RunBatch(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
