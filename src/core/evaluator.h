// Public query-evaluation API.
//
// Evaluator dispatches a validated Query over a GraphDb to one of the
// engines the paper's complexity analysis distinguishes:
//
//   kProduct     the general on-the-fly convolution engine (Thm 5.1/6.1/6.3);
//                handles every ECRPQ, PSPACE-complete combined complexity.
//                A CRPQ (unary relations, no repeated path variables)
//                plans as the all-scan plan: one ReachabilityScan leaf per
//                atom, joined as a conjunctive query — the folklore CRPQ
//                algorithm and the acyclic PTIME algorithm of Thm 6.5
//   kCounting    Parikh/ILP engine for linear constraints on occurrence
//                counts or path lengths (Thm 8.5)
//   kQlen        length-abstraction engine (Lemma 6.6 / Thm 6.7): relations
//                are replaced by R_len and solved via arithmetic
//                progressions
//   kBruteForce  bounded path enumeration; reference semantics for tests
//
// kAuto picks kCounting for queries with linear atoms, and kProduct
// otherwise.
//
// kProduct and kCounting read the graph only through a GraphIndex
// snapshot (graph/index.h: label-sliced CSR expansion, degree-ordered
// seeding) — the caller's, or one built per run; there is no
// adjacency-scan path. kQlen needs only unlabeled successor sets and
// kBruteForce enumerates GraphDb out-lists, so neither takes an index.
//
// Engines stream distinct answer tuples through a ResultSink (see
// core/result_sink.h); the sink can stop evaluation early. The
// Result<QueryResult> overloads materialize the full sorted answer set.
//
// The compile-once / stream-many session API (prepared plans, parameter
// binding, cursors, plan caching) lives in api/ — prefer
// api::Database/PreparedQuery for application code; Evaluator is the
// engine-level entry point underneath it.

#ifndef ECRPQ_CORE_EVALUATOR_H_
#define ECRPQ_CORE_EVALUATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/path_answers.h"
#include "core/result_sink.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "query/analysis.h"
#include "query/ast.h"
#include "solver/parikh.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ecrpq {

// Graph-independent compiled form of a query (eval_product.h).
struct CompiledQuery;
using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

// Cost-based operator DAG for a query (core/planner.h).
struct PhysicalPlan;

enum class Engine {
  kAuto,
  kProduct,
  kCounting,
  kQlen,
  kBruteForce,
};

/// Direction of a component leaf's search (ReachabilityScan /
/// ProductExpand). Forward expands out-edges from start anchors (the
/// classical evaluation); backward expands in-edges from end anchors
/// through the compiled reversed automata; bidirectional runs both
/// half-searches on a fully anchored leaf, always stepping the smaller
/// frontier, and stops at the first meet (meet-in-the-middle). The
/// planner picks a direction per leaf from index statistics; kAuto defers
/// to that choice, any other value forces every leaf (infeasible
/// requests degrade: bidirectional needs both endpoints anchored and
/// falls back to backward/forward; graph recording pins forward).
enum class SearchDirection {
  kAuto,
  kForward,
  kBackward,
  kBidirectional,
};

/// Short display name ("auto", "fwd", "bwd", "bidir") — the `direction=`
/// field of Explain and operator stats.
const char* SearchDirectionName(SearchDirection direction);

struct EvalOptions {
  Engine engine = Engine::kAuto;

  /// Evaluate synchronization components independently and join (kProduct).
  /// Off = forbid decomposition: the whole conjunction runs as ONE
  /// monolithic product (the paper's Thm 5.1 evaluation, exponential in
  /// the number of components) — the baseline the planner is measured
  /// against (bench_planner_join).
  bool use_components = true;

  /// Search direction of component leaves. kAuto lets the planner choose
  /// per leaf (forward unless statistics or anchoring favor backward /
  /// bidirectional). Any other value forces that direction on every
  /// leaf where it is feasible (benchmark / ablation hook).
  SearchDirection direction = SearchDirection::kAuto;

  /// Build Prop 5.2 answer automata for head path variables.
  bool build_path_answers = true;

  /// Degree of intra-query parallelism. Operator leaves partition their
  /// degree-ordered seed sets (start assignments, seed rows, scan
  /// sources) into morsels executed on the shared work-stealing pool,
  /// one independent search per item; joins run serially on the
  /// calling thread. A leaf with a single anchor assignment is one
  /// search and runs on one lane. 0 = auto (the ECRPQ_THREADS
  /// environment variable when set, else hardware concurrency); 1 = the
  /// exact single-threaded path (no pool involvement). Results do not
  /// depend on it: parallel leaves merge per-worker outputs at barrier
  /// points in canonical seed order, so the emitted tuple sequence — and
  /// therefore which k tuples a `limit` keeps — is the same at any lane
  /// count (the ordering contract in core/result_sink.h).
  int num_threads = 0;

  /// Optional cooperative cancellation. The product engine — the path
  /// parallel execution runs on — polls the token at
  /// morsel/config granularity and returns Status::Cancelled once it
  /// trips; it also fans early termination (limit / exists, worker
  /// errors, budget exhaustion) out to all workers of the execution.
  /// The counting engine polls it per node assignment and before every
  /// branch & bound node of its ILPs. The qlen/bruteforce engines
  /// (serial; num_threads is a no-op there) check only at entry, so a
  /// mid-run cancel takes effect at their next engine-level boundary. Use
  /// one token per execution — a tripped token stays tripped.
  std::shared_ptr<CancellationToken> cancellation;

  /// Product-configuration budget of one execution (ProductExpand
  /// leaves); exceeding returns ResourceExhausted. ReachabilityScan
  /// leaves — every leaf of a CRPQ's plan — are polynomial and not
  /// charged.
  uint64_t max_configs = 2000000;

  /// Path-length bound for the brute-force engine.
  int bruteforce_max_len = 8;

  /// Parikh/ILP options (kCounting).
  ParikhOptions parikh;
};

/// Resolves Engine::kAuto: kCounting when the query has linear atoms,
/// else kProduct. Returns `requested` unchanged otherwise.
Engine SelectEngine(const Query& query, Engine requested);

/// Lower-case display name of an engine ("product", "counting", ...).
const char* EngineName(Engine engine);

/// Materialized evaluation output: Q(G) with node tuples sorted and path
/// answers represented by Prop 5.2 automata. This is a thin value type
/// filled from an engine run; engines themselves write to a ResultSink.
class QueryResult {
 public:
  QueryResult() = default;
  QueryResult(std::vector<std::vector<NodeId>> tuples,
              std::vector<PathAnswerSet> path_answers, EvalStats stats)
      : tuples_(std::move(tuples)),
        path_answers_(std::move(path_answers)),
        stats_(std::move(stats)) {}

  /// For Boolean queries: was the body satisfiable? (Non-Boolean: any
  /// answer tuple exists.)
  bool AsBool() const { return !tuples_.empty(); }

  /// Distinct head-node bindings, sorted. For Boolean queries this is
  /// {()} when true and {} when false.
  const std::vector<std::vector<NodeId>>& tuples() const { return tuples_; }

  /// Answer automata, parallel to tuples(); present when the query head
  /// has path variables and path answers were requested.
  bool has_path_answers() const { return !path_answers_.empty(); }
  const PathAnswerSet& path_answers(size_t tuple_index) const {
    return path_answers_[tuple_index];
  }

  const EvalStats& stats() const { return stats_; }

 private:
  std::vector<std::vector<NodeId>> tuples_;
  std::vector<PathAnswerSet> path_answers_;
  EvalStats stats_;
};

/// Runs a streaming engine invocation to completion and materializes the
/// canonical sorted QueryResult — the one place the sink/sort/wrap
/// contract lives. `run` fills the sink and stats.
Result<QueryResult> MaterializeResult(
    const std::function<Status(ResultSink&, EvalStats&)>& run);

/// Facade: binds a graph and options, dispatches queries to engines.
class Evaluator {
 public:
  explicit Evaluator(const GraphDb* graph, EvalOptions options = {})
      : graph_(graph), options_(options) {}

  /// Attaches a prebuilt CSR index for `graph` (api::Database shares its
  /// snapshot this way; its `graph` is a catalog without out-lists, so
  /// the index is required there). Without it, the evaluator builds one
  /// on the first Evaluate call and reuses it afterwards, since every
  /// engine reads edges from it; a snapshot whose node/edge/label counters no
  /// longer match the graph is rebuilt automatically (GraphDb is
  /// append-only, so the counters detect every mutation). Not
  /// thread-safe: concurrent Evaluate calls on one Evaluator race on the
  /// cached index.
  void set_graph_index(GraphIndexPtr index) { index_ = std::move(index); }
  const GraphIndexPtr& graph_index() const { return index_; }

  /// Materializing evaluation: full sorted answer set.
  Result<QueryResult> Evaluate(const Query& query) const;

  /// Streaming evaluation: distinct tuples are pushed into `sink` in
  /// discovery order; `stats` receives engine counters. When `compiled`
  /// is non-null it must be the CompileQuery output for `query` (reused
  /// automata + analysis; see eval_product.h) — prepared-query executions
  /// pass it to skip recompilation. When it is null, the engine compiles
  /// the query.
  /// `plan` (optional) is a cached PhysicalPlan for this query
  /// (core/planner.h); engines plan on the fly when absent.
  Status Evaluate(const Query& query, ResultSink& sink, EvalStats& stats,
                  CompiledQueryPtr compiled = nullptr,
                  const PhysicalPlan* plan = nullptr) const;

  const EvalOptions& options() const { return options_; }

 private:
  const GraphDb* graph_;
  EvalOptions options_;
  mutable GraphIndexPtr index_;  // attached or built snapshot, see above
};

}  // namespace ecrpq

#endif  // ECRPQ_CORE_EVALUATOR_H_
