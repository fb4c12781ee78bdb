// Tests of the benchmark's own measurement rules. Build and run with
// `python3 perfbench/run.py --self-test`.

#include "measure.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

using matcn::net::WireCode;

TEST(SupportedPercentile, LeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedPercentile(999), 989.0 / 999.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(500), 0.98);
  EXPECT_DOUBLE_EQ(SupportedPercentile(11), 1.0 / 11.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(10), 0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(0), 0);
}

TEST(SupportedPercentile, RankHasExactlyTenBeyondIt) {
  for (size_t n : {11u, 57u, 500u, 999u, 1000u, 1001u, 4321u}) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    const double p = SupportedPercentile(n);
    const double value = NearestRank(v, p);
    const size_t beyond = n - static_cast<size_t>(value);
    EXPECT_GE(beyond, 10u) << n;
    if (p < 0.99) {
      EXPECT_EQ(beyond, 10u) << n;
    }
  }
}

TEST(Summarize, MedianAndP99) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500);
  EXPECT_DOUBLE_EQ(s.tail, 990);
  EXPECT_DOUBLE_EQ(s.tail_pct, 0.99);
}

TEST(Summarize, FewSamplesReportTheHighestSupportedPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.tail_pct, 0.95);
  EXPECT_DOUBLE_EQ(s.tail, 190);
  Report r;
  r.AddTimings("query", s);
  ASSERT_EQ(r.metrics().size(), 2u);
  EXPECT_NE(r.metrics()[1].note.find("p95.00"), std::string::npos);
}

TEST(Summarize, AStallInOnePartOfTheRunShowsInTheTail) {
  // Four stretches of 1000 samples; in the first the program stalls on
  // its last 50 (a compaction, say), 1.25% of all samples. The pooled p99
  // must show the stall.
  std::vector<double> v;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      v.push_back(w == 0 && i > 950 ? 100'000 : i);
    }
  }
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 4000u);
  EXPECT_DOUBLE_EQ(s.p50, 500);
  EXPECT_DOUBLE_EQ(s.tail, 100'000);
}

TEST(Summarize, SlowerProgramSlowsMedianAndTail) {
  std::vector<double> fast, slow;
  for (int i = 0; i < 4000; ++i) {
    fast.push_back(1.0 + (i % 100));
    slow.push_back(1.2 * (1.0 + (i % 100)));
  }
  EXPECT_GT(Summarize(slow).p50, Summarize(fast).p50);
  EXPECT_GT(Summarize(slow).tail, Summarize(fast).tail);
}

TEST(SelfTime, NoChildrenIsTheDuration) {
  SpanRecorder rec;
  rec.Add(1, 0, "a", 100, 350);
  EXPECT_EQ(SelfTimesNs(rec.spans()), std::vector<int64_t>{250});
}

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  SpanRecorder rec;
  const uint32_t root = rec.Add(1, 0, "root", 0, 100);
  rec.Add(1, root, "c1", 10, 40);
  rec.Add(1, root, "c2", 30, 60);   // overlaps c1 by 10
  rec.Add(1, root, "c3", 55, 58);   // inside c2
  rec.Add(1, root, "c4", 90, 130);  // sticks out of the parent
  const std::vector<int64_t> self = SelfTimesNs(rec.spans());
  // Covered: [10, 60) and [90, 100) = 60; self = 100 - 60.
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[4], 40);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheRoot) {
  SpanRecorder rec;
  const uint32_t root = rec.Add(1, 0, "root", 0, 100);
  const uint32_t child = rec.Add(1, root, "child", 20, 80);
  rec.Add(1, child, "grandchild", 30, 70);
  const std::vector<int64_t> self = SelfTimesNs(rec.spans());
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTime, ChildrenCoveringEverythingLeaveZero) {
  SpanRecorder rec;
  const uint32_t root = rec.Add(1, 0, "root", 0, 100);
  rec.Add(1, root, "c1", -50, 60);
  rec.Add(1, root, "c2", 50, 150);
  EXPECT_EQ(SelfTimesNs(rec.spans())[0], 0);
  const std::vector<double> ms =
      SelfTimesMs(rec.spans(), SelfTimesNs(rec.spans()), "c2");
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_DOUBLE_EQ(ms[0], 100 / 1e6);
}

TEST(MetricName, Grammar) {
  EXPECT_TRUE(ValidMetricName("query_p50_ms"));
  EXPECT_TRUE(ValidMetricName("core.matchcn.self_p99_ms"));
  EXPECT_TRUE(ValidMetricName("a-b.c_9"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("query p50"));
  EXPECT_FALSE(ValidMetricName("lat/ms"));
  EXPECT_FALSE(ValidMetricName("x{a=1}"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Report, RejectsBadAndRepeatedNames) {
  Report ok;
  ok.Add("a.b", 1, "ms", 1);
  ok.Add("a.c", 2, "ms", 1);
  EXPECT_TRUE(ok.valid());
  Report repeated;
  repeated.Add("a", 1, "ms", 1);
  repeated.Add("a", 2, "ms", 1);
  EXPECT_FALSE(repeated.valid());
  Report bad;
  bad.Add("a b", 1, "ms", 1);
  EXPECT_FALSE(bad.valid());
}

TEST(FailFrac, RejectionsAndDeadlineMissesAreFailures) {
  constexpr int64_t kDeadline = 1000;
  OpCounts c;
  c.Add(Classify(true, WireCode::kOk, 10, kDeadline));
  c.Add(Classify(true, WireCode::kOk, 999, kDeadline));
  c.Add(Classify(false, WireCode::kResourceExhausted, 5, kDeadline));
  c.Add(Classify(false, WireCode::kDeadlineExceeded, 5, kDeadline));
  c.Add(Classify(true, WireCode::kOk, 1001, kDeadline));  // answered late
  c.Add(Classify(false, WireCode::kInternal, 5, kDeadline));
  c.Add(Classify(false, WireCode::kUnavailable, 5, kDeadline));
  c.Add(Classify(true, WireCode::kOk, 10, kDeadline));
  EXPECT_EQ(c.attempted(), 8u);
  EXPECT_EQ(c.ok, 3u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.deadline, 2u);
  EXPECT_EQ(c.error, 2u);
  EXPECT_EQ(c.failed(), 5u);
  EXPECT_DOUBLE_EQ(c.fail_frac(), 5.0 / 8.0);
}

TEST(FailFrac, NoDeadlineMeansOnlyServerVerdictsFail) {
  OpCounts c;
  c.Add(Classify(true, WireCode::kOk, 1'000'000'000'000, 0));
  EXPECT_EQ(c.failed(), 0u);
  EXPECT_DOUBLE_EQ(OpCounts{}.fail_frac(), 0);
}

/// Runs on the calling thread until it has used `cpu_ns` of CPU time.
void Spin(int64_t cpu_ns) {
  const int64_t until = ThreadCpuNs() + cpu_ns;
  while (ThreadCpuNs() < until) {
  }
}

TEST(OthersCpu, CountsOtherThreadsButNotTheCaller) {
  OthersCpu others;
  others.Start();
  Spin(30'000'000);  // the caller's own work: not counted
  std::thread worker(Spin, 30'000'000);
  worker.join();
  const int64_t ns = others.Stop();
  EXPECT_GE(ns, 30'000'000);
  EXPECT_LT(ns, 45'000'000);
}

TEST(OthersCpu, WaitingCostsNoCpu) {
  OthersCpu others;
  others.Start();
  std::thread sleeper(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
  sleeper.join();
  EXPECT_LT(others.Stop(), 20'000'000);
}

TEST(JsonNumber, RoundTripsAllDigits) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");
}

}  // namespace
}  // namespace perfbench
