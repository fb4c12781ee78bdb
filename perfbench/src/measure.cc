#include "measure.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

double SupportedPercentile(size_t n, double cap) {
  if (n <= 10) return 0;
  // Beyond p lie n - ceil(p * n) samples; the largest p leaving ten is
  // (n - 10) / n exactly.
  return std::min(cap, static_cast<double>(n - 10) / static_cast<double>(n));
}

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  // The epsilon keeps p * n = 990.0000000001 from ranking as 991.
  const double exact = p * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = NearestRank(values, 0.5);
  s.tail_pct = SupportedPercentile(values.size());
  s.tail = s.tail_pct > 0 ? NearestRank(values, s.tail_pct) : values.back();
  return s;
}

Outcome Classify(bool answered, matcn::net::WireCode code, int64_t latency_ns,
                 int64_t deadline_ns) {
  using matcn::net::WireCode;
  if (!answered) {
    if (code == WireCode::kResourceExhausted) return Outcome::kRejected;
    if (code == WireCode::kDeadlineExceeded) return Outcome::kDeadline;
    return Outcome::kError;
  }
  if (deadline_ns > 0 && latency_ns > deadline_ns) return Outcome::kDeadline;
  return Outcome::kOk;
}

void OpCounts::Add(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kRejected: ++rejected; break;
    case Outcome::kDeadline: ++deadline; break;
    case Outcome::kError: ++error; break;
  }
}

double OpCounts::fail_frac() const {
  return attempted() == 0 ? 0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted());
}

uint32_t SpanRecorder::Add(uint64_t op, uint32_t parent, const char* name,
                           int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{op, parent, name, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size());
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\top\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << '\t' << s.op << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // Children grouped by parent id, each clipped to its parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& child : spans) {
    if (child.parent == 0 || child.parent > spans.size()) continue;
    const Span& parent = spans[child.parent - 1];
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[child.parent - 1].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              union_ns;
    self[i] = std::max<int64_t>(0, self[i]);
  }
  return self;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans,
                                const std::vector<int64_t>& self_ns,
                                std::string_view name) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) out.push_back(NsToMs(self_ns[i]));
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples, std::string note) {
  const bool repeated =
      std::any_of(metrics_.begin(), metrics_.end(),
                  [&](const Metric& m) { return m.name == name; });
  if (!ValidMetricName(name) || repeated) valid_ = false;
  if (!std::isfinite(value)) {
    value = 0;
    note += note.empty() ? "not finite" : "; not finite";
    valid_ = false;
  }
  metrics_.push_back(Metric{name, value, unit, samples, std::move(note)});
}

void Report::AddTimings(const std::string& prefix, const Summary& s,
                        const std::string& unit) {
  Add(prefix + "_p50_" + unit, s.p50, unit, s.n);
  std::string note;
  if (s.n == 0) {
    note = "no samples";
  } else if (s.tail_pct < 0.99) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "p99 needs 1000 samples; this is p%.2f (max if n<=10)",
                  s.tail_pct * 100);
    note = buf;
  }
  Add(prefix + "_p99_" + unit, s.tail, unit, s.n, note);
}

void Report::PrintLines(std::ostream& os) const {
  for (const Metric& m : metrics_) {
    os << "metric " << m.name << " " << JsonNumber(m.value) << " " << m.unit
       << " n=" << m.samples;
    if (!m.note.empty()) os << " (" << m.note << ")";
    os << "\n";
  }
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  if (!(stat >> cpu) || cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

}  // namespace perfbench
