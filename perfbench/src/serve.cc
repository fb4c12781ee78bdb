// serve_read and serve_write: imdb scale 1.0 on the live backend
// (ConcurrentTermIndex + IndexWriter + QueryService + net::Server, wired
// as matcn_server wires them), driven over TCP by the pipelined driver.
//
// Phases: an open-loop Poisson phase at the fixed rate (latency from the
// intended start), then a closed-loop saturate phase (capacity). After
// the timed window a fixed sample of queries is sent again and compared
// byte for byte with MatCnGen::Generate on a TermIndex rebuilt from the
// final database.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/cn_to_sql.h"
#include "core/matcngen.h"
#include "datasets/generators.h"
#include "driver.h"
#include "graph/schema_graph.h"
#include "indexing/term_index.h"
#include "liveindex/concurrent_term_index.h"
#include "liveindex/index_writer.h"
#include "net/server.h"
#include "replay.h"
#include "service/query_service.h"
#include "shard/coordinator.h"
#include "shard/local_cluster.h"
#include "shard/shard_map.h"
#include "workload/arrival.h"
#include "workload/workload_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using matcn::workload::Op;

constexpr int kSetupRepeats = 40;
/// Share of --seconds spent in the fixed-rate phase; the rest saturates.
constexpr double kFixedShare = 0.75;
/// Ops of warm-up before the fixed-rate phase, in seconds of that phase.
constexpr double kWarmupSeconds = 5;
/// Requests each connection keeps outstanding in the saturate phase.
constexpr unsigned kClosedDepth = 4;
/// An answer later than this after its intended start missed its deadline.
constexpr int64_t kDeadlineNs = 1'000'000'000;
/// A request sent this much after its intended start counts as late.
constexpr int64_t kLateNs = 1'000'000;

/// Queries re-sent after the timed window for the output check.
constexpr size_t kCheckSample = 48;

/// Keeps the driver off the server's CPUs: threads created while
/// ServerSide() is in force (the server's loop and workers, created by
/// Start) inherit every CPU but the last, and DriverSide() pins the
/// calling thread to that last CPU. A spinning driver then never competes
/// with the server for a core, and the server is measured on nproc - 1
/// CPUs with as many worker threads. The destructor restores the
/// original mask.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    ok_ = ::sched_getaffinity(0, sizeof(all_), &all_) == 0 &&
          CPU_COUNT(&all_) >= 2;
    if (!ok_) return;
    server_ = all_;
    CPU_ZERO(&driver_);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        CPU_CLR(cpu, &server_);
        CPU_SET(cpu, &driver_);
        break;
      }
    }
  }
  ~CpuSplit() {
    if (ok_) ::sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  void ServerSide() {
    if (ok_) ::sched_setaffinity(0, sizeof(server_), &server_);
  }
  void DriverSide() {
    if (ok_) ::sched_setaffinity(0, sizeof(driver_), &driver_);
  }
  bool ok() const { return ok_; }
  /// CPUs the server's threads may use: one worker thread each.
  unsigned server_cpus() const {
    return static_cast<unsigned>(CPU_COUNT(ok_ ? &server_ : &all_));
  }

 private:
  bool ok_ = false;
  cpu_set_t all_;
  cpu_set_t server_;
  cpu_set_t driver_;
};

matcn::Database MakeServeDatabase() { return matcn::MakeImdb(42, 1.0); }

/// The served system. Members are declared in dependency order, so the
/// destructor tears down server, service, writer and index before the
/// database they borrow.
class ServeStack {
 public:
  explicit ServeStack(unsigned threads)
      : db_(MakeServeDatabase()),
        graph_(matcn::SchemaGraph::Build(db_.schema())),
        offline_(matcn::TermIndex::Build(db_)) {
    live_ = std::make_unique<matcn::liveindex::ConcurrentTermIndex>(offline_);
    writer_ = std::make_unique<matcn::liveindex::IndexWriter>(&db_, live_.get());
    matcn::QueryServiceOptions options;
    options.num_threads = threads;
    service_ = std::make_unique<matcn::QueryService>(&graph_, live_.get(),
                                                     options);
    service_->ConnectWriter(writer_.get());
    server_ = std::make_unique<matcn::net::Server>(
        service_.get(), &db_.schema(), writer_.get());
  }
  ~ServeStack() { server_->Shutdown(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  matcn::Status Start() { return server_->Start(); }

  matcn::Database& db() { return db_; }
  const matcn::SchemaGraph& graph() const { return graph_; }
  const matcn::TermIndex& offline() const { return offline_; }
  matcn::liveindex::ConcurrentTermIndex& live() { return *live_; }
  matcn::liveindex::IndexWriter& writer() { return *writer_; }
  matcn::QueryService& service() { return *service_; }
  matcn::net::Server& server() { return *server_; }

 private:
  matcn::Database db_;
  matcn::SchemaGraph graph_;
  matcn::TermIndex offline_;
  std::unique_ptr<matcn::liveindex::ConcurrentTermIndex> live_;
  std::unique_ptr<matcn::liveindex::IndexWriter> writer_;
  std::unique_ptr<matcn::QueryService> service_;
  std::unique_ptr<matcn::net::Server> server_;
};

/// Span ids of the traced ops, filled as answers arrive. Every second op
/// is recorded, so the other half measures what recording costs.
struct TraceState {
  SpanRecorder* recorder = nullptr;
  std::vector<uint32_t> net_span;
};

bool Recorded(size_t index) { return index % 2 == 0; }

void RecordCompletion(void* ctx, size_t index, const OpResult& r) {
  if (!Recorded(index)) return;
  auto* state = static_cast<TraceState*>(ctx);
  const uint32_t root =
      state->recorder->Add(index, 0, "op", r.intended_ns, r.done_ns);
  state->recorder->Add(index, root, "driver.send", r.intended_ns, r.written_ns);
  state->net_span[index] =
      state->recorder->Add(index, root, "net", r.written_ns, r.done_ns);
}

matcn::Result<matcn::KeywordQuery> QueryOf(const Op& op) {
  return matcn::KeywordQuery::FromKeywords(op.keywords);
}

matcn::Tuple TupleOf(const Op& op) {
  matcn::Tuple tuple;
  for (const matcn::workload::OpValue& v : op.values) {
    if (v.is_int) {
      tuple.emplace_back(v.int_value);
    } else {
      tuple.emplace_back(v.text);
    }
  }
  return tuple;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Replays the fixed phase through the stage functions and
/// IndexWriter::Insert on a fresh, unserved stack that has taken the
/// warm-up's INSERTs, so the served database is left as it was and each
/// stage runs on the index its op saw: ops go in stream order, every
/// acknowledged INSERT is applied (timed when recorded) and every
/// recorded query replayed. Each replayed stage is placed inside the
/// served op's spans: SQL emit and the service call end the net span (the
/// service's duration is the trailer's server_latency_us), and on a cache
/// miss TSFind, QMGen and MatchCN end the service span.
void ReplayLayers(const std::vector<Op>& warmup_ops,
                  const std::vector<OpResult>& warmup,
                  const std::vector<Op>& ops,
                  const std::vector<OpResult>& results, bool check_cn_counts,
                  int64_t budget_ns, TraceState* trace, RunResult* out) {
  SpanRecorder& rec = *trace->recorder;
  ServeStack stack(1);
  const auto insert = [&](const Op& op) {
    const std::optional<matcn::RelationId> relation =
        stack.db().schema().RelationIdByName(op.relation);
    if (!relation.has_value()) {
      out->Problem("replay: unknown relation ", op.relation);
      return;
    }
    if (!stack.writer().Insert(*relation, TupleOf(op)).ok()) {
      out->Problem("replay: IndexWriter::Insert failed");
    }
  };
  const auto acknowledged = [](const OpResult& r) {
    return r.answered && r.code == matcn::net::WireCode::kOk;
  };
  for (size_t i = 0; i < warmup_ops.size(); ++i) {
    if (warmup_ops[i].kind == Op::Kind::kInsert && acknowledged(warmup[i])) {
      insert(warmup_ops[i]);
    }
  }
  StageReplay replay(&stack.graph(), &stack.db().schema(),
                     stack.service().options().gen.t_max);
  size_t misses = 0;
  size_t replayed = 0;
  double tuple_sets = 0, matches = 0, cns_matched = 0, sql_bytes = 0,
         sql_cns = 0;
  int64_t matchcn_ns = 0;
  const int64_t stop = NowNs() + budget_ns;
  for (size_t i = 0; i < ops.size() && NowNs() < stop; ++i) {
    const OpResult& r = results[i];
    if (ops[i].kind == Op::Kind::kInsert) {
      if (!acknowledged(r)) continue;
      const int64_t t0 = NowNs();
      insert(ops[i]);
      if (Recorded(i)) rec.Add(i, 0, "liveindex.insert", t0, NowNs());
      continue;
    }
    if (!Recorded(i) || !r.answered) continue;
    matcn::Result<matcn::KeywordQuery> query = QueryOf(ops[i]);
    if (!query.ok()) continue;
    const matcn::KeywordQuery normalized = stack.service().Normalize(*query);
    const StageSample s = replay.RunLive(stack.live(), normalized);
    ++replayed;
    if (check_cn_counts && s.cns != r.cns_total) {
      out->Problem("replay of '", normalized.ToString(), "' found ",
                   std::to_string(s.cns), " CNs, the server sent ",
                   std::to_string(r.cns_total));
    }
    const uint32_t net = trace->net_span[i];
    const int64_t sql_start = r.done_ns - s.sql_ns;
    rec.Add(i, net, "core.sql_emit", sql_start, r.done_ns);
    sql_bytes += static_cast<double>(s.sql_bytes);
    sql_cns += static_cast<double>(s.cns);
    const int64_t svc_start =
        sql_start - static_cast<int64_t>(r.server_us) * 1000;
    const uint32_t svc = rec.Add(i, net, "service", svc_start, sql_start);
    if (r.cache_hit) continue;
    ++misses;
    const int64_t cn_start = sql_start - s.matchcn_ns;
    const int64_t qm_start = cn_start - s.qmgen_ns;
    rec.Add(i, svc, "core.matchcn", cn_start, sql_start);
    rec.Add(i, svc, "core.qmgen", qm_start, cn_start);
    rec.Add(i, svc, "core.tsfind", qm_start - s.tsfind_ns, qm_start);
    tuple_sets += static_cast<double>(s.tuple_sets);
    matches += static_cast<double>(s.matches);
    cns_matched += static_cast<double>(s.cns);
    matchcn_ns += s.matchcn_ns;
  }
  Report& rep = out->report;
  rep.Add("core.tsfind.tuple_sets_per_query", Ratio(tuple_sets, misses),
          "count", misses);
  rep.Add("core.qmgen.matches_per_query", Ratio(matches, misses), "count",
          misses);
  rep.Add("core.matchcn.ms_per_match",
          Ratio(NsToMs(matchcn_ns), matches), "ms", misses);
  rep.Add("core.matchcn.cn_per_match", Ratio(cns_matched, matches), "ratio",
          misses);
  rep.Add("core.sql_emit.bytes_per_cn", Ratio(sql_bytes, sql_cns), "B",
          replayed);
}

/// The shard layer, replayed: the traced queries' tuple-set stage through
/// a Coordinator over two in-process shards, timed around
/// Coordinator::FindTupleSets and compared with the single-process R_Q.
void ReplayShards(ServeStack* stack, const std::vector<Op>& ops,
                  const std::vector<OpResult>& results, int64_t budget_ns,
                  SpanRecorder* rec, RunResult* out) {
  namespace shard = matcn::shard;
  shard::ShardMapOptions map_options;
  map_options.num_shards = 2;
  const shard::ShardMap map =
      shard::ShardMap::Build(stack->db().schema(), map_options);
  shard::LocalShardClusterOptions cluster_options;
  cluster_options.service.num_threads = 1;
  shard::LocalShardCluster cluster(MakeServeDatabase, &map, cluster_options);
  if (matcn::Status s = cluster.Start(); !s.ok()) {
    out->Problem("shard cluster: ", s.ToString());
    return;
  }
  shard::Coordinator coordinator(&map, cluster.Endpoints());
  if (matcn::Status s = coordinator.Connect(); !s.ok()) {
    out->Problem("coordinator: ", s.ToString());
    cluster.Stop();
    return;
  }
  StageReplay replay(&stack->graph(), &stack->db().schema(),
                     stack->service().options().gen.t_max);
  const int64_t stop = NowNs() + budget_ns;
  for (size_t i = 0; i < ops.size() && NowNs() < stop; ++i) {
    if (!Recorded(i) || !results[i].answered ||
        ops[i].kind != Op::Kind::kQuery) {
      continue;
    }
    matcn::Result<matcn::KeywordQuery> query = QueryOf(ops[i]);
    if (!query.ok()) continue;
    const matcn::KeywordQuery normalized = stack->service().Normalize(*query);
    const int64_t t0 = NowNs();
    matcn::Result<matcn::TupleSetBatch> batch = coordinator.FindTupleSets(
        normalized, matcn::Deadline::Infinite(), nullptr, 0);
    rec->Add(i, 0, "shard.scatter", t0, NowNs());
    if (!batch.ok() ||
        batch->tuple_sets != replay.LiveTupleSets(stack->live(), normalized)) {
      out->Problem("sharded tuple sets differ for '", normalized.ToString(),
                   "'");
    }
  }
  matcn::ServiceStatsSnapshot stats;
  coordinator.FillStats(&stats);
  out->report.Add("shard.merge_us_mean",
                  static_cast<double>(stats.shard_merge_us_mean), "us",
                  stats.shard_scatters);
  out->report.Add("shard.degraded_batches",
                  static_cast<double>(stats.shard_degraded_batches), "count",
                  stats.shard_scatters);
  coordinator.Shutdown();
  cluster.Stop();
}

/// Re-sends a fixed sample of the fixed phase's queries and compares
/// every CN record, text and SQL, with the sequential memory-backend
/// pipeline over a TermIndex rebuilt from the final database. Stops the
/// server: the check runs on the quiesced database.
void CheckAnswers(ServeStack* stack, WireDriver* driver,
                  const std::vector<Op>& ops, RunResult* out) {
  std::vector<Op> sample;
  size_t queries = 0;
  for (const Op& op : ops) queries += op.kind == Op::Kind::kQuery;
  const size_t stride = std::max<size_t>(1, queries / kCheckSample);
  size_t seen = 0;
  for (const Op& op : ops) {
    if (op.kind != Op::Kind::kQuery) continue;
    if (seen++ % stride == 0 && sample.size() < kCheckSample) {
      sample.push_back(op);
    }
  }
  std::vector<OpResult> answers;
  driver->set_capture(true);
  driver->set_hook(nullptr, nullptr);
  const int64_t issued =
      driver->RunClosedLoop(sample, 1, 60'000'000'000, &answers);
  driver->set_capture(false);
  if (issued != static_cast<int64_t>(sample.size())) {
    out->Problem("output check: sample not answered");
    return;
  }
  stack->server().Shutdown();

  const matcn::liveindex::LiveIndexOptions live_options;
  const matcn::TermIndex rebuilt =
      matcn::TermIndex::Build(stack->db(), live_options.index);
  matcn::MatCnGenOptions gen_options = stack->service().options().gen;
  gen_options.num_threads = 1;
  gen_options.executor = nullptr;
  const matcn::MatCnGen oracle(&stack->graph(), gen_options);
  const matcn::DatabaseSchema& schema = stack->db().schema();
  size_t compared = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const OpResult& r = answers[i];
    matcn::Result<matcn::KeywordQuery> query = QueryOf(sample[i]);
    if (!query.ok()) continue;
    const matcn::KeywordQuery normalized = stack->service().Normalize(*query);
    const std::string label = normalized.ToString();
    if (!r.answered || r.degraded) {
      out->Problem("output check: no complete answer for '", label, "'");
      continue;
    }
    const matcn::GenerationResult expect = oracle.Generate(normalized, rebuilt);
    bool same = expect.cns.size() == r.cn_text.size() &&
                r.cns_total == expect.cns.size();
    for (size_t k = 0; same && k < expect.cns.size(); ++k) {
      same = r.cn_text[k] == expect.cns[k].ToString(schema, normalized) &&
             r.cn_sql[k] ==
                 matcn::CandidateNetworkToSql(expect.cns[k], schema,
                                              normalized);
    }
    if (!same) out->Problem("output check: CN stream differs for '", label, "'");
    ++compared;
  }
  std::cout << "check " << compared << " sampled answers compared with the "
            << "rebuilt-index oracle\n";
}

}  // namespace

bool RunServe(const RunOptions& opt, RunResult* out) {
  const bool writes = opt.workload == "serve_write";
  const unsigned connections = std::min(opt.nproc, 4u);
  if (opt.rate_qps <= 0) {
    std::cerr << "serve workloads need --rate\n";
    return false;
  }
  if (writes) {
    out->absent_layers = {"shard"};
  } else {
    out->absent_layers = {"liveindex"};
  }

  CpuSplit cpus;
  cpus.ServerSide();
  // Set-up, several times: the last stack serves.
  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    const int64_t t0 = NowNs();
    stack = std::make_unique<ServeStack>(cpus.server_cpus());
    if (matcn::Status s = stack->Start(); !s.ok()) {
      std::cerr << "server start failed: " << s.ToString() << "\n";
      return false;
    }
    setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
  }
  const int t_max = stack->service().options().gen.t_max;

  // The op stream, from the seed alone.
  matcn::workload::WorkloadSpec spec;
  spec.read_fraction = writes ? 0.5 : 1.0;
  spec.seed = opt.seed;
  matcn::Result<matcn::workload::WorkloadEngine> engine =
      matcn::workload::WorkloadEngine::Build(stack->db().schema(),
                                             stack->offline(), spec);
  if (!engine.ok()) {
    std::cerr << "workload engine: " << engine.status().ToString() << "\n";
    return false;
  }
  const double fixed_s = opt.seconds * kFixedShare;
  const double closed_s = opt.seconds - fixed_s;
  const size_t n_fixed =
      static_cast<size_t>(std::ceil(opt.rate_qps * fixed_s));
  const std::vector<Op> warmup_ops = engine->Generate(
      static_cast<size_t>(std::ceil(kWarmupSeconds * opt.rate_qps)));
  const std::vector<Op> fixed_ops = engine->Generate(n_fixed);
  const std::vector<int64_t> offsets = matcn::workload::ArrivalOffsetsUs(
      matcn::workload::ArrivalKind::kOpenPoisson, opt.rate_qps, n_fixed,
      opt.seed);

  std::cout << "config server_threads=" << stack->service().Stats().num_threads
            << " cn_threads=" << stack->service().options().gen.num_threads
            << " cache_bytes=" << stack->service().options().cache_bytes
            << " t_max=" << t_max << " dataset=imdb scale=1.0 tuples="
            << stack->live().total_tuples() << " connections=" << connections
            << " closed_depth=" << kClosedDepth << " rate_qps=" << opt.rate_qps
            << " deadline_ms=" << kDeadlineNs / 1'000'000
            << " driver_cpu_pinned=" << cpus.ok() << "\n";
  char hash[64];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(
                    matcn::workload::HashOps(fixed_ops)));
  std::cout << "stream " << opt.workload << " seed=" << opt.seed
            << " read_fraction=" << spec.read_fraction
            << " fixed_ops=" << fixed_ops.size() << " fixed_ops_hash=" << hash;
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(
                    matcn::workload::HashOps(warmup_ops)));
  std::cout << " warmup_ops=" << warmup_ops.size()
            << " warmup_ops_hash=" << hash;
  std::cout << "\n";

  matcn::Result<WireDriver> driver =
      WireDriver::Connect(stack->server().port(), connections);
  if (!driver.ok()) {
    std::cerr << "driver connect: " << driver.status().ToString() << "\n";
    return false;
  }
  driver->set_include_sql(true);
  SpanRecorder recorder;
  TraceState trace;
  if (opt.trace) {
    trace.recorder = &recorder;
    trace.net_span.assign(fixed_ops.size(), 0);
  }

  cpus.DriverSide();
  // Warm-up, untimed: the head of the stream, closed loop, so the result
  // cache holds the hot set before anything is measured.
  std::vector<OpResult> warmup;
  if (driver->RunClosedLoop(warmup_ops, kClosedDepth, 60'000'000'000,
                            &warmup) !=
      static_cast<int64_t>(warmup_ops.size())) {
    std::cerr << "warm-up broke off\n";
    return false;
  }
  matcn::Result<matcn::net::StatsPayload> s0 = driver->Stats();
  if (opt.trace) driver->set_hook(RecordCompletion, &trace);
  // The server's CPU time: every thread but this one, the driver's.
  OthersCpu server_cpu;
  server_cpu.Start();
  std::vector<OpResult> fixed;
  const bool fixed_ok = driver->RunOpenLoop(fixed_ops, offsets, &fixed);
  const int64_t fixed_cpu_ns = server_cpu.Stop();
  matcn::Result<matcn::net::StatsPayload> s1 = driver->Stats();
  driver->set_hook(nullptr, nullptr);
  // Peak memory after the fixed-rate phase, before the saturate phase's
  // op pool and bookkeeping (which grow with capacity) are allocated.
  const double peak_rss = PeakRssMb();

  // The saturate phase continues the same stream. The fixed rate sits well
  // below capacity; six times the rate leaves ops to spare.
  const std::vector<Op> closed_ops = engine->Generate(
      static_cast<size_t>(std::ceil(6 * opt.rate_qps * closed_s)) + 1000);
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(
                    matcn::workload::HashOps(closed_ops)));
  std::cout << "stream saturate_pool=" << closed_ops.size()
            << " saturate_pool_hash=" << hash << "\n";
  std::vector<OpResult> closed;
  const int64_t closed_t0 = NowNs();
  const int64_t closed_n = driver->RunClosedLoop(
      closed_ops, kClosedDepth, static_cast<int64_t>(closed_s * 1e9), &closed);
  matcn::Result<matcn::net::StatsPayload> s2 = driver->Stats();
  cpus.ServerSide();
  if (!fixed_ok || closed_n < 0 || !s0.ok() || !s1.ok() || !s2.ok()) {
    std::cerr << "serving run broke off (connection lost or server stalled)\n";
    return false;
  }
  if (static_cast<size_t>(closed_n) == closed_ops.size()) {
    std::cout << "FLAG saturate phase ran out of ops before its window "
                 "ended; raise the pool\n";
  }

  // End-to-end metrics, from every op of each phase.
  OpCounts counts;
  std::vector<double> query_ms, insert_ms;
  std::vector<double> lag_ms, traced_ms, untraced_ms;
  uint64_t answered_queries = 0, degraded = 0, late = 0, inserts_ok = 0;
  uint64_t fixed_ok_ops = 0;
  for (size_t i = 0; i < fixed.size(); ++i) {
    const OpResult& r = fixed[i];
    const int64_t latency = r.done_ns - r.intended_ns;
    const Outcome outcome = Classify(r.answered, r.code, latency, kDeadlineNs);
    counts.Add(outcome);
    const int64_t lag = r.written_ns - r.intended_ns;
    lag_ms.push_back(NsToMs(lag));
    late += lag > kLateNs;
    fixed_ok_ops += outcome == Outcome::kOk;
    if (fixed_ops[i].kind == Op::Kind::kInsert) {
      if (outcome == Outcome::kOk) {
        insert_ms.push_back(NsToMs(latency));
        ++inserts_ok;
      }
      continue;
    }
    if (r.answered) {
      ++answered_queries;
      degraded += r.degraded;
    }
    if (outcome != Outcome::kOk) continue;
    query_ms.push_back(NsToMs(latency));
    (Recorded(i) ? traced_ms : untraced_ms).push_back(NsToMs(latency));
  }
  // Capacity counts the OK queries answered within the saturate window;
  // the requests still outstanding when it closes drain uncounted.
  const int64_t closed_t1 = closed_t0 + static_cast<int64_t>(closed_s * 1e9);
  uint64_t closed_ok = 0;
  for (int64_t i = 0; i < closed_n; ++i) {
    const OpResult& r = closed[i];
    const Outcome outcome =
        Classify(r.answered, r.code, r.done_ns - r.intended_ns, kDeadlineNs);
    counts.Add(outcome);
    if (closed_ops[i].kind == Op::Kind::kQuery) {
      closed_ok += outcome == Outcome::kOk && r.done_ns <= closed_t1;
      if (r.answered) {
        ++answered_queries;
        degraded += r.degraded;
      }
    } else if (outcome == Outcome::kOk) {
      ++inserts_ok;
    }
  }
  out->attempted = counts.attempted();
  out->failed = counts.failed();

  Report& rep = out->report;
  rep.Add("cpu_ms_per_op", Ratio(NsToMs(fixed_cpu_ns), fixed_ok_ops), "ms",
          fixed_ok_ops);
  rep.AddTimings("query", Summarize(query_ms));
  rep.Add("capacity_qps", static_cast<double>(closed_ok) / closed_s, "1/s",
          closed_ok);
  const Summary setup = Summarize(setup_s);
  rep.Add("setup_s", setup.p50, "s", setup.n);
  rep.Add("peak_rss_mb", peak_rss, "MiB", 1);
  if (writes) rep.AddTimings("insert", Summarize(insert_ms));
  rep.Add("fail_frac", counts.fail_frac(), "ratio", counts.attempted());
  rep.Add("ok_frac", 1 - counts.fail_frac(), "ratio", counts.attempted());
  rep.Add("degraded_frac", Ratio(degraded, answered_queries), "ratio",
          answered_queries);

  // Driver validity and STATS deltas: cheap, so every run reports them.
  const Summary lag = Summarize(lag_ms);
  rep.Add("driver.send_lag_p99_ms", lag.tail, "ms", lag.n);
  const double late_frac = Ratio(late, fixed.size());
  rep.Add("driver.late_frac", late_frac, "ratio", fixed.size());
  if (late_frac > 0.01) {
    std::cout << "FLAG driver fell behind its schedule: "
              << late_frac * 100 << "% of ops sent more than "
              << kLateNs / 1'000'000 << " ms late\n";
  }
  uint64_t fixed_answered = 0;
  for (const OpResult& r : fixed) fixed_answered += r.answered;
  rep.Add("net.bytes_per_query",
          Ratio(static_cast<double>(s1->bytes_sent - s0->bytes_sent),
                fixed_answered),
          "B", fixed_answered);
  const uint64_t hits = s1->cache_hits - s0->cache_hits;
  const uint64_t lookups = hits + s1->cache_misses - s0->cache_misses;
  rep.Add("service.cache_hit_rate", Ratio(hits, lookups), "ratio", lookups);
  if (writes) {
    rep.Add("service.invalidations_per_insert",
            Ratio(static_cast<double>(s2->cache_invalidations -
                                      s0->cache_invalidations),
                  inserts_ok),
            "count", inserts_ok);
    rep.Add("liveindex.compactions",
            static_cast<double>(s2->index_compactions - s0->index_compactions),
            "count", inserts_ok);
    rep.Add("liveindex.delta_bytes", static_cast<double>(s2->index_delta_bytes),
            "B", 1);
  } else {
    rep.Add("service.invalidations_per_insert", 0, "count", 0,
            "read-only stream");
  }

  if (opt.trace) {
    const int64_t budget = static_cast<int64_t>(opt.seconds * 1e9);
    ReplayLayers(warmup_ops, warmup, fixed_ops, fixed, !writes, budget, &trace,
                 out);
    if (!writes) {
      ReplayShards(stack.get(), fixed_ops, fixed, budget / 2, &recorder, out);
    }
    const std::vector<Span>& spans = recorder.spans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    rep.AddTimings("net.self", Summarize(SelfTimesMs(spans, self, "net")));
    rep.AddTimings("service.self",
                   Summarize(SelfTimesMs(spans, self, "service")));
    for (const char* layer : {"core.tsfind", "core.qmgen", "core.matchcn"}) {
      rep.AddTimings(std::string(layer) + ".self",
                     Summarize(SelfTimesMs(spans, self, layer)));
    }
    const Summary sql = Summarize(SelfTimesMs(spans, self, "core.sql_emit"));
    rep.Add("core.sql_emit.self_p50_ms", sql.p50, "ms", sql.n);
    if (writes) {
      rep.AddTimings("liveindex.insert",
                     Summarize(SelfTimesMs(spans, self, "liveindex.insert")));
    } else {
      rep.AddTimings("shard.scatter",
                     Summarize(SelfTimesMs(spans, self, "shard.scatter")));
    }
    const double traced_p50 = Summarize(traced_ms).p50;
    const double untraced_p50 = Summarize(untraced_ms).p50;
    rep.Add("trace.overhead_frac",
            untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "ratio",
            traced_ms.size());
    if (!opt.spans_path.empty() && !recorder.WriteTsv(opt.spans_path)) {
      std::cerr << "could not write " << opt.spans_path << "\n";
    }
  }

  CheckAnswers(stack.get(), &*driver, fixed_ops, out);
  return true;
}

}  // namespace perfbench
