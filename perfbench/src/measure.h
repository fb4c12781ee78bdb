#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement primitives of the benchmark: the percentile rule, outcome
// accounting, the in-memory span recorder with self-time attribution,
// and the metric report every workload fills.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------
// Percentiles.

/// The highest percentile, as a fraction no larger than `cap`, that still
/// has at least ten of `n` samples beyond it under the nearest-rank rule
/// (rank = ceil(p * n)). p99 therefore needs n >= 1000. Returns 0 when
/// n <= 10: no tail percentile is supported at all.
double SupportedPercentile(size_t n, double cap = 0.99);

/// Nearest-rank value of ascending `sorted` at fraction p in (0, 1].
double NearestRank(const std::vector<double>& sorted, double p);

/// Median and tail of one timing distribution, with its sample count.
/// `tail_pct` is the percentile actually reported (0.99 whenever n allows).
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};

Summary Summarize(std::vector<double> values);

// ---------------------------------------------------------------------
// Outcomes.

enum class Outcome : uint8_t { kOk, kRejected, kDeadline, kError };

/// An answered op that arrived after its deadline missed it, exactly like
/// a server-side DEADLINE_EXCEEDED; RESOURCE_EXHAUSTED is a rejection.
Outcome Classify(bool answered, matcn::net::WireCode code,
                 int64_t latency_ns, int64_t deadline_ns);

/// Ops attempted and how each ended. Rejections and deadline misses are
/// failures as much as errors are.
struct OpCounts {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;

  void Add(Outcome outcome);
  uint64_t attempted() const { return ok + rejected + deadline + error; }
  uint64_t failed() const { return rejected + deadline + error; }
  double fail_frac() const;
};

// ---------------------------------------------------------------------
// Spans.

/// One span of the traced run. `op` groups the spans of one operation;
/// `parent` is the id of the enclosing span (0 = root). Ids are 1-based
/// positions in the recorder.
struct Span {
  uint64_t op = 0;
  uint32_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  uint32_t Add(uint64_t op, uint32_t parent, const char* name,
               int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  /// One tab-separated line per span: id, op, parent, name, start, end.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its own interval covered by the union of its children's
/// intervals, so overlapping children are not subtracted twice.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self times in ms of every span named `name`.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans,
                                const std::vector<int64_t>& self_ns,
                                std::string_view name);

// ---------------------------------------------------------------------
// Report.

/// True for names made of [A-Za-z0-9_.-], starting with a letter or digit,
/// at most 64 characters long.
bool ValidMetricName(std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples, std::string note = {});
  /// Adds `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>`; the tail note
  /// names the percentile actually reported when fewer than 1000 samples
  /// exist.
  void AddTimings(const std::string& prefix, const Summary& s,
                  const std::string& unit = "ms");
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// False if any name broke the grammar or repeated.
  bool valid() const { return valid_; }
  /// "metric <name> <value> <unit> n=<samples> [note]" lines.
  void PrintLines(std::ostream& os) const;
  /// {"name": {"value": v, "unit": u, "samples": n}, ...}
  std::string MetricsJson() const;

 private:
  std::vector<Metric> metrics_;
  bool valid_ = true;
};

/// Shortest round-trip decimal form of a finite double; "0" otherwise.
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// CPU time all threads of this process have run, in ns.
int64_t ProcessCpuNs();
/// CPU time the calling thread has run, in ns.
int64_t ThreadCpuNs();

/// CPU time the process spends outside the calling thread between Start
/// and Stop: the server's share while the calling thread drives it. The
/// kernel charges no task for time the hypervisor gives to other guests
/// (steal), and a thread waiting to be woken runs no CPU time, so this
/// does not grow when the host is busy the way wall time does.
class OthersCpu {
 public:
  void Start() {
    process0_ = ProcessCpuNs();
    thread0_ = ThreadCpuNs();
  }
  /// CPU ns of the other threads since Start.
  int64_t Stop() const {
    return (ProcessCpuNs() - process0_) - (ThreadCpuNs() - thread0_);
  }

 private:
  int64_t process0_ = 0;
  int64_t thread0_ = 0;
};

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
