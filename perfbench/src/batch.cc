// cngen_mondial: one caller runs MatCnGen::Generate over paper-style
// Coffman-Weaver and SPARK queries on Mondial, the densest schema graph.
// No net, no service, no cache: MatchCN is nearly all of the time. Every
// answer's CN-stream digest is compared with an oracle that composes the
// stage functions itself.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "core/matcngen.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "graph/schema_graph.h"
#include "indexing/term_index.h"
#include "replay.h"
#include "workload/workload_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 200;
/// Scale 0.1, not 1.0: at 1.0 a call averages 0.16 to 0.45 s (the
/// heaviest 3.6 s), so a run could not reach the 1000 samples p99 needs
/// within its time limit.
constexpr double kScale = 0.1;
constexpr int kTMax = 5;
/// The query set is fixed: a few queries cost 100 to 400 ms against a
/// median under 0.1 ms, so a set drawn per seed moved capacity by 15%
/// between seeds. --seed orders the calls of each pass.
constexpr size_t kQueriesPerStyle = 300;
constexpr uint64_t kQuerySetSeed = 7;

struct BatchStack {
  BatchStack()
      : db(matcn::MakeMondial(43, kScale)),
        graph(matcn::SchemaGraph::Build(db.schema())),
        index(matcn::TermIndex::Build(db)) {}
  matcn::Database db;
  matcn::SchemaGraph graph;
  matcn::TermIndex index;
};

uint64_t StreamHash(const std::vector<matcn::KeywordQuery>& queries) {
  std::vector<matcn::workload::Op> ops(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ops[i].seq = i;
    ops[i].keywords = queries[i].keywords();
  }
  return matcn::workload::HashOps(ops);
}

/// The oracle: every query's CN-stream digest from the stage functions
/// composed by StageReplay, independently of MatCnGen's own orchestration,
/// computed on up to `threads` threads.
std::vector<uint64_t> OracleDigests(const BatchStack& stack,
                                    const std::vector<matcn::KeywordQuery>& qs,
                                    unsigned threads) {
  std::vector<uint64_t> digests(qs.size());
  auto work = [&](unsigned w) {
    StageReplay replay(&stack.graph, &stack.db.schema(), kTMax);
    for (size_t i = w; i < qs.size(); i += threads) {
      digests[i] = replay.RunMem(stack.index, qs[i]).digest;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  return digests;
}

}  // namespace

bool RunBatch(const RunOptions& opt, RunResult* out) {
  out->absent_layers = {"driver", "net", "service", "liveindex", "shard"};

  std::vector<double> setup_s;
  std::unique_ptr<BatchStack> stack;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    const int64_t t0 = NowNs();
    stack = std::make_unique<BatchStack>();
    setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
  }

  const matcn::WorkloadGenerator generator(&stack->db, &stack->graph,
                                           &stack->index);
  std::vector<matcn::KeywordQuery> queries;
  for (matcn::QueryStyle style :
       {matcn::QueryStyle::kCoffmanWeaver, matcn::QueryStyle::kSpark}) {
    matcn::WorkloadOptions options;
    options.style = style;
    options.num_queries = kQueriesPerStyle;
    options.seed = kQuerySetSeed;
    for (matcn::WorkloadQuery& wq : generator.Generate(options)) {
      queries.push_back(std::move(wq.query));
    }
  }
  if (queries.empty()) {
    std::cerr << "no queries generated\n";
    return false;
  }
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(StreamHash(queries)));
  std::cout << "config dataset=mondial scale=" << kScale << " t_max=" << kTMax
            << " num_threads=1 caller_threads=1 oracle_threads=" << opt.nproc
            << "\n"
            << "stream cngen_mondial seed=" << opt.seed
            << " query_set_seed=" << kQuerySetSeed
            << " queries=" << queries.size() << " styles=CW,SPARK"
            << " ops_hash=" << hash << "\n";

  const std::vector<uint64_t> expected =
      OracleDigests(*stack, queries, opt.nproc);

  // Sequential MatchCN (num_threads = 1). With num_threads = nproc the
  // same seed's median swung from 0.25 to 0.71 ms between runs on a
  // virtualized 4-core host: a multi-match call waits for helpers whose
  // wake-up the hypervisor can delay by milliseconds.
  matcn::MatCnGenOptions options;
  options.t_max = kTMax;
  options.num_threads = 1;
  const matcn::MatCnGen gen(&stack->graph, options);
  std::mt19937_64 rng(opt.seed);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SpanRecorder recorder;
  std::vector<double> latency_ms, traced_ms, untraced_ms;
  uint64_t calls = 0, mismatches = 0, degraded = 0;
  int64_t busy_ns = 0, cpu_ns = 0;
  // Whole passes over the query set, each in a fresh seeded order, until
  // --seconds have passed: every query weighs the same in every run. Two
  // passes at least, so that p99 has its 1000 samples.
  const int64_t end = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  size_t passes = 0;
  while (passes < 2 || NowNs() < end) {
    ++passes;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i : order) {
      const int64_t c0 = ThreadCpuNs();
      const int64_t t0 = NowNs();
      const matcn::GenerationResult result = gen.Generate(queries[i],
                                                          stack->index);
      const int64_t t1 = NowNs();
      cpu_ns += ThreadCpuNs() - c0;
      // Alternate passes run with the span recorder on, so both halves
      // time the same queries.
      const bool recorded = opt.trace && passes % 2 == 1;
      if (recorded) recorder.Add(calls, 0, "op", t0, t1);
      busy_ns += t1 - t0;
      latency_ms.push_back(NsToMs(t1 - t0));
      if (opt.trace) {
        (recorded ? traced_ms : untraced_ms).push_back(NsToMs(t1 - t0));
      }
      ++calls;
      degraded += result.stats.truncated || result.stats.interrupted;
      if (CnStreamDigest(result, stack->db.schema(), queries[i]) !=
          expected[i]) {
        ++mismatches;
        out->Problem("CN stream of '", queries[i].ToString(),
                     "' differs from the oracle");
      }
    }
  }
  const double peak_rss = PeakRssMb();
  out->attempted = calls;
  out->failed = 0;

  Report& rep = out->report;
  // Every op of this workload is a query, answered on this thread.
  rep.Add("cpu_ms_per_op", calls > 0 ? NsToMs(cpu_ns) / calls : 0, "ms", calls);
  rep.AddTimings("query", Summarize(latency_ms));
  rep.Add("capacity_qps",
          busy_ns > 0 ? static_cast<double>(calls) / (NsToMs(busy_ns) / 1000)
                      : 0,
          "1/s", calls);
  const Summary setup = Summarize(setup_s);
  rep.Add("setup_s", setup.p50, "s", setup.n);
  rep.Add("peak_rss_mb", peak_rss, "MiB", 1);
  rep.Add("fail_frac", 0, "ratio", calls);
  rep.Add("ok_frac", 1, "ratio", calls);
  rep.Add("degraded_frac",
          calls > 0 ? static_cast<double>(degraded) / calls : 0, "ratio",
          calls);
  std::cout << "check " << calls << " answers (" << passes
            << " passes) compared with the oracle, " << mismatches
            << " differ\n";

  if (opt.trace) {
    // The stages, replayed one query at a time: two whole passes in fresh
    // shuffled orders, as the timed loop makes at least.
    StageReplay replay(&stack->graph, &stack->db.schema(), kTMax);
    size_t replayed = 0;
    double tuple_sets = 0, matches = 0, cns = 0, sql_bytes = 0;
    int64_t matchcn_ns = 0;
    for (size_t k = 0; k < 2 * order.size(); ++k) {
      if (k % order.size() == 0) std::shuffle(order.begin(), order.end(), rng);
      const size_t i = order[k % order.size()];
      const int64_t t0 = NowNs();
      const StageSample s = replay.RunMem(stack->index, queries[i]);
      const uint64_t op = calls + k;
      const uint32_t root =
          recorder.Add(op, 0, "replay", t0,
                       t0 + s.tsfind_ns + s.qmgen_ns + s.matchcn_ns + s.sql_ns);
      int64_t at = t0;
      for (const auto& [name, ns] :
           {std::pair<const char*, int64_t>{"core.tsfind", s.tsfind_ns},
            {"core.qmgen", s.qmgen_ns},
            {"core.matchcn", s.matchcn_ns},
            {"core.sql_emit", s.sql_ns}}) {
        recorder.Add(op, root, name, at, at + ns);
        at += ns;
      }
      ++replayed;
      tuple_sets += static_cast<double>(s.tuple_sets);
      matches += static_cast<double>(s.matches);
      cns += static_cast<double>(s.cns);
      sql_bytes += static_cast<double>(s.sql_bytes);
      matchcn_ns += s.matchcn_ns;
    }
    const std::vector<Span>& spans = recorder.spans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    for (const char* layer : {"core.tsfind", "core.qmgen", "core.matchcn"}) {
      rep.AddTimings(std::string(layer) + ".self",
                     Summarize(SelfTimesMs(spans, self, layer)));
    }
    const Summary sql = Summarize(SelfTimesMs(spans, self, "core.sql_emit"));
    rep.Add("core.sql_emit.self_p50_ms", sql.p50, "ms", sql.n);
    const double per_query = replayed > 0 ? 1.0 / replayed : 0;
    rep.Add("core.tsfind.tuple_sets_per_query", tuple_sets * per_query,
            "count", replayed);
    rep.Add("core.qmgen.matches_per_query", matches * per_query, "count",
            replayed);
    rep.Add("core.matchcn.ms_per_match",
            matches > 0 ? NsToMs(matchcn_ns) / matches : 0, "ms", replayed);
    rep.Add("core.matchcn.cn_per_match", matches > 0 ? cns / matches : 0,
            "ratio", replayed);
    rep.Add("core.sql_emit.bytes_per_cn", cns > 0 ? sql_bytes / cns : 0, "B",
            replayed);
    const double traced_p50 = Summarize(traced_ms).p50;
    const double untraced_p50 = Summarize(untraced_ms).p50;
    rep.Add("trace.overhead_frac",
            untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "ratio",
            traced_ms.size());
    if (!opt.spans_path.empty() && !recorder.WriteTsv(opt.spans_path)) {
      std::cerr << "could not write " << opt.spans_path << "\n";
    }
  }
  return true;
}

}  // namespace perfbench
