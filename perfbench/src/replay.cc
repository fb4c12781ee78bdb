#include "replay.h"

#include <utility>

#include "core/cn_to_sql.h"
#include "core/qmgen.h"
#include "core/tsfind.h"
#include "core/tuple_set_graph.h"
#include "measure.h"

namespace perfbench {

namespace {

void Fnv(uint64_t* h, std::string_view s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  *h ^= '\n';
  *h *= 1099511628211ull;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

}  // namespace

uint64_t CnStreamDigest(const std::vector<std::string>& texts) {
  uint64_t h = kFnvBasis;
  for (const std::string& t : texts) Fnv(&h, t);
  return h;
}

uint64_t CnStreamDigest(const matcn::GenerationResult& result,
                        const matcn::DatabaseSchema& schema,
                        const matcn::KeywordQuery& query) {
  uint64_t h = kFnvBasis;
  for (const matcn::CandidateNetwork& cn : result.cns) {
    Fnv(&h, cn.ToString(schema, query));
  }
  return h;
}

StageReplay::StageReplay(const matcn::SchemaGraph* graph,
                         const matcn::DatabaseSchema* schema, int t_max)
    : graph_(graph), schema_(schema), t_max_(t_max) {}

StageSample StageReplay::RunMem(const matcn::TermIndex& index,
                                const matcn::KeywordQuery& query) {
  StageSample s;
  const int64_t t0 = NowNs();
  std::vector<matcn::TupleSet> tuple_sets =
      matcn::TupleSetFinder::FindMem(index, query);
  s.tsfind_ns = NowNs() - t0;
  RunAfterTsFind(query, std::move(tuple_sets), &s);
  return s;
}

std::vector<matcn::TupleSet> StageReplay::LiveTupleSets(
    const matcn::liveindex::ConcurrentTermIndex& live,
    const matcn::KeywordQuery& query) {
  const matcn::liveindex::IndexSnapshot snapshot = live.Snapshot();
  std::vector<matcn::TermsetTuples> keyword_lists;
  keyword_lists.reserve(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    matcn::TermsetTuples tt;
    tt.termset = matcn::Termset{1} << i;
    snapshot.TuplesForInto(query.keyword(i), &posting_scratch_, &tt.tuples);
    keyword_lists.push_back(std::move(tt));
  }
  return matcn::TupleSetFinder::BuildTupleSets(std::move(keyword_lists));
}

StageSample StageReplay::RunLive(
    const matcn::liveindex::ConcurrentTermIndex& live,
    const matcn::KeywordQuery& query) {
  StageSample s;
  const int64_t t0 = NowNs();
  std::vector<matcn::TupleSet> tuple_sets = LiveTupleSets(live, query);
  s.tsfind_ns = NowNs() - t0;
  RunAfterTsFind(query, std::move(tuple_sets), &s);
  return s;
}

void StageReplay::RunAfterTsFind(const matcn::KeywordQuery& query,
                                 std::vector<matcn::TupleSet> tuple_sets,
                                 StageSample* s) {
  s->tuple_sets = tuple_sets.size();

  int64_t t = NowNs();
  const std::vector<matcn::QueryMatch> matches =
      matcn::GenerateMatches(query, tuple_sets);
  s->qmgen_ns = NowNs() - t;
  s->matches = matches.size();

  t = NowNs();
  std::vector<matcn::CandidateNetwork> cns;
  {
    const matcn::TupleSetGraph ts_graph(graph_, &tuple_sets);
    matcn::MatchGraph match_graph(&ts_graph);
    matcn::SingleCnOptions options;
    options.t_max = t_max_;
    std::vector<int> nodes;
    for (const matcn::QueryMatch& match : matches) {
      nodes.clear();
      for (int ts_index : match) nodes.push_back(ts_graph.NonFreeNode(ts_index));
      match_graph.Reset(nodes);
      matcn::CandidateNetwork cn;
      if (matcn::SingleCnInto(match_graph, options, &scratch_, &cn)) {
        cns.push_back(std::move(cn));
      }
    }
  }
  s->matchcn_ns = NowNs() - t;
  s->cns = cns.size();

  t = NowNs();
  std::vector<std::string> texts;
  texts.reserve(cns.size());
  for (const matcn::CandidateNetwork& cn : cns) {
    texts.push_back(cn.ToString(*schema_, query));
    const std::string sql = matcn::CandidateNetworkToSql(cn, *schema_, query);
    s->sql_bytes += texts.back().size() + sql.size();
  }
  s->sql_ns = NowNs() - t;
  s->digest = CnStreamDigest(texts);
}

}  // namespace perfbench
