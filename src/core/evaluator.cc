#include "core/evaluator.h"

#include "core/eval_bruteforce.h"
#include "core/eval_counting.h"
#include "core/eval_product.h"
#include "core/eval_qlen.h"
#include "core/planner.h"

namespace ecrpq {

Engine SelectEngine(const Query& query, Engine requested) {
  if (requested != Engine::kAuto) return requested;
  if (!query.linear_atoms().empty()) return Engine::kCounting;
  return Engine::kProduct;
}

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kAuto:
      return "auto";
    case Engine::kProduct:
      return "product";
    case Engine::kCounting:
      return "counting";
    case Engine::kQlen:
      return "qlen";
    case Engine::kBruteForce:
      return "bruteforce";
  }
  return "?";
}

const char* SearchDirectionName(SearchDirection direction) {
  switch (direction) {
    case SearchDirection::kAuto:
      return "auto";
    case SearchDirection::kForward:
      return "fwd";
    case SearchDirection::kBackward:
      return "bwd";
    case SearchDirection::kBidirectional:
      return "bidir";
  }
  return "?";
}

Status Evaluator::Evaluate(const Query& query, ResultSink& sink,
                           EvalStats& stats, CompiledQueryPtr compiled,
                           const PhysicalPlan* plan) const {
  const Engine engine = SelectEngine(query, options_.engine);
  // Build (or refresh) the cached index, which every engine reads edges
  // from. A snapshot is stale iff one of its counters moved —
  // revalidating here keeps a reused Evaluator correct when the graph
  // was grown between Evaluate calls.
  if (index_ == nullptr || index_->num_nodes() != graph_->num_nodes() ||
      index_->num_edges() != graph_->num_edges() ||
      index_->num_labels() != graph_->alphabet().size()) {
    if (!graph_->has_adjacency()) {
      return Status::FailedPrecondition(
          "the graph is a catalog without edges: attach its snapshot with "
          "set_graph_index");
    }
    index_ = GraphIndex::Build(*graph_);
  }
  GraphIndexPtr index = index_;
  switch (engine) {
    case Engine::kProduct:
      return EvaluateProduct(*graph_, query, options_, sink, stats,
                             std::move(compiled), std::move(index), plan);
    case Engine::kCounting:
      return EvaluateCounting(*graph_, query, options_, sink, stats,
                              std::move(compiled), std::move(index));
    case Engine::kQlen:
      return EvaluateQlen(*graph_, query, options_, sink, stats,
                          std::move(compiled), std::move(index));
    case Engine::kBruteForce:
      return EvaluateBruteForce(*graph_, query, options_, sink, stats,
                                std::move(compiled), std::move(index));
    case Engine::kAuto:
      break;
  }
  return Status::Internal("unreachable engine dispatch");
}

Result<QueryResult> MaterializeResult(
    const std::function<Status(ResultSink&, EvalStats&)>& run) {
  MaterializingSink sink;
  EvalStats stats;
  Status st = run(sink, stats);
  if (!st.ok()) return st;
  sink.SortRows();
  return QueryResult(sink.tuples.ToVectors(), std::move(sink.path_answers),
                     std::move(stats));
}

Result<QueryResult> Evaluator::Evaluate(const Query& query) const {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return Evaluate(query, sink, stats);
  });
}

}  // namespace ecrpq
