#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Replays one query through the pipeline's public stage functions, in
// pipeline order, timing each stage from outside: TSFind, QMGen
// (GenerateMatches), MatchCN (SingleCnInto over each match's MatchGraph)
// and SQL emit (CandidateNetwork::ToString + CandidateNetworkToSql).
// QueryService runs these stages inside one call; the replay is how the
// traced run splits that call into layers.

#include <cstdint>
#include <string>
#include <vector>

#include "core/keyword_query.h"
#include "core/matcngen.h"
#include "core/single_cn.h"
#include "core/tuple_set.h"
#include "graph/schema_graph.h"
#include "indexing/postings.h"
#include "indexing/term_index.h"
#include "liveindex/concurrent_term_index.h"
#include "storage/schema.h"

namespace perfbench {

struct StageSample {
  int64_t tsfind_ns = 0;
  int64_t qmgen_ns = 0;
  int64_t matchcn_ns = 0;
  int64_t sql_ns = 0;
  size_t tuple_sets = 0;
  size_t matches = 0;
  size_t cns = 0;
  size_t sql_bytes = 0;  // CN text plus SQL, as the wire carries them
  uint64_t digest = 0;   // CnStreamDigest of the CN texts
};

/// FNV-1a over the CN texts in order, newline-terminated.
uint64_t CnStreamDigest(const std::vector<std::string>& texts);
uint64_t CnStreamDigest(const matcn::GenerationResult& result,
                        const matcn::DatabaseSchema& schema,
                        const matcn::KeywordQuery& query);

class StageReplay {
 public:
  /// `t_max` and the unlimited match budget mirror the server's
  /// MatCnGenOptions.
  StageReplay(const matcn::SchemaGraph* graph,
              const matcn::DatabaseSchema* schema, int t_max);

  /// TSFind_Mem against the offline index.
  StageSample RunMem(const matcn::TermIndex& index,
                     const matcn::KeywordQuery& query);
  /// The live backend's TSFind (snapshot lookups per keyword, then
  /// BuildTupleSets) followed by the other stages.
  StageSample RunLive(const matcn::liveindex::ConcurrentTermIndex& live,
                      const matcn::KeywordQuery& query);
  /// The live backend's TSFind alone: R_Q as a single process finds it.
  std::vector<matcn::TupleSet> LiveTupleSets(
      const matcn::liveindex::ConcurrentTermIndex& live,
      const matcn::KeywordQuery& query);

 private:
  void RunAfterTsFind(const matcn::KeywordQuery& query,
                      std::vector<matcn::TupleSet> tuple_sets,
                      StageSample* s);

  const matcn::SchemaGraph* graph_;
  const matcn::DatabaseSchema* schema_;
  int t_max_;
  matcn::SingleCnScratch scratch_;
  matcn::PostingScratch posting_scratch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
