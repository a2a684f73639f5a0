// Brute-force reference semantics: enumerate all path assignments up to a
// length bound and check the query definition literally (Definition 3.1
// plus the linear-atom semantics of Section 8.2).
//
// Exponential; used as ground truth by property tests and for tiny
// examples. Results are exactly Q(G) restricted to assignments where every
// path has length <= max_len.

#ifndef ECRPQ_CORE_EVAL_BRUTEFORCE_H_
#define ECRPQ_CORE_EVAL_BRUTEFORCE_H_

#include "core/evaluator.h"

namespace ecrpq {

/// One ground answer: head node binding plus head path binding.
struct GroundAnswer {
  std::vector<NodeId> nodes;
  PathTuple paths;
};

/// All ground answers with every assigned path of length <= max_len.
/// Deduplicated, deterministic order. `compiled` (optional) reuses a
/// prior CompileQuery result instead of recompiling inside ResolveQuery.
/// Paths are enumerated over `index`, a snapshot of `graph` (built here
/// when null); `graph` may be a catalog without out-lists.
Result<std::vector<GroundAnswer>> BruteForceAnswers(
    const GraphDb& graph, const Query& query, int max_len,
    CompiledQueryPtr compiled = nullptr, GraphIndexPtr index = nullptr);

/// Streaming view over BruteForceAnswers (node tuples only; path answers
/// omitted).
Status EvaluateBruteForce(const GraphDb& graph, const Query& query,
                          const EvalOptions& options, ResultSink& sink,
                          EvalStats& stats,
                          CompiledQueryPtr compiled = nullptr,
                          GraphIndexPtr index = nullptr);

/// Materializing convenience wrapper (sorted tuples).
Result<QueryResult> EvaluateBruteForce(const GraphDb& graph,
                                       const Query& query,
                                       const EvalOptions& options);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_EVAL_BRUTEFORCE_H_
