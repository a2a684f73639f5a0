// A query compiled once, executable many times.
//
// PreparedQuery is the product of Database::Prepare: the text is parsed,
// validated, statically optimized, and its relation automata are compiled
// (ε-elimination, transition maps) and analyzed exactly once. Executions
// only pay the data-dependent cost — the paper's split between
// query-dependent and data-dependent complexity, realized as an API.
//
// Queries may contain `$name` node-constant parameters (see
// query/parser.h); each execution binds them to concrete nodes through
// Params. PreparedQuery is a cheap value: it shares the immutable compiled
// plan and stays valid as long as its Database.

#ifndef ECRPQ_API_PREPARED_QUERY_H_
#define ECRPQ_API_PREPARED_QUERY_H_

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/result_cursor.h"
#include "core/eval_product.h"
#include "core/evaluator.h"
#include "core/planner.h"
#include "query/optimizer.h"
#include "util/status.h"

namespace ecrpq {

class Database;

/// Per-execution bindings for `$name` parameters: node names resolved
/// against the database graph at execute time.
class Params {
 public:
  Params() = default;

  /// Binds parameter `$name` to the node called `node_name`.
  Params& Set(std::string name, std::string node_name) {
    bindings_[std::move(name)] = std::move(node_name);
    return *this;
  }

  const std::map<std::string, std::string>& bindings() const {
    return bindings_;
  }

 private:
  std::map<std::string, std::string> bindings_;
};

/// Per-execution knobs; session defaults come from DatabaseOptions.
struct ExecuteOptions {
  /// Stop after this many answer tuples (0 = unlimited). Pushed down into
  /// the engine as early termination.
  uint64_t limit = 0;

  /// Absolute deadline for this execution. When the engine is still
  /// running at the deadline, the shared DeadlineMonitor trips the
  /// execution's CancellationToken (one is created if the caller supplied
  /// none) and the cursor reports Status::Cancelled — never a silent
  /// empty-OK. A deadline that has already passed when evaluation starts
  /// fails the same way without running the engine. Executions queued or
  /// delayed past their deadline therefore shed load instead of doing
  /// stale work (the serving layer maps per-request deadline_ms here).
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Convenience: deadline = now + timeout.
  ExecuteOptions& set_timeout(std::chrono::milliseconds timeout) {
    deadline = std::chrono::steady_clock::now() + timeout;
    return *this;
  }

  /// Engine override for this execution (default: the session's choice).
  std::optional<Engine> engine;

  /// Override the session's build_path_answers setting.
  std::optional<bool> build_path_answers;

  /// Override the session's intra-query parallelism for this execution
  /// (see EvalOptions::num_threads; 1 = serial legacy path).
  std::optional<int> num_threads;

  /// Cancellation token for this execution (see EvalOptions::cancellation
  /// for polling granularity per engine; trip it from any thread to stop
  /// the engine). Use a fresh token per execution.
  std::shared_ptr<CancellationToken> cancellation;
};

/// The immutable compiled form of one query text (shared by every
/// PreparedQuery handle and by the Database plan cache).
struct CompiledPlan {
  CompiledPlan(std::string text, Query query, OptimizerReport report,
               CompiledQueryPtr compiled)
      : text(std::move(text)),
        query(std::move(query)),
        optimizer_report(std::move(report)),
        compiled(std::move(compiled)) {}

  std::string text;
  Query query;                     ///< optimized, validated
  OptimizerReport optimizer_report;
  CompiledQueryPtr compiled;       ///< relation automata + analysis

  // Physical-plan memo: the cost-based operator DAG for this query
  // against one GraphIndex snapshot. PreparedQuery::plan() fills it and
  // re-costs when the Database's index snapshot changes (the weak_ptr no
  // longer locks to the session index — i.e. after any graph mutation).
  // Mutable: a memoized cost annotation, not plan identity; memo_mutex
  // guards it so every PreparedQuery handle of the same text can execute
  // concurrently (lock order: Database::graph_mutex_ before memo_mutex).
  mutable std::mutex memo_mutex;
  mutable PhysicalPlanPtr physical;
  mutable std::weak_ptr<const GraphIndex> physical_index;
};

/// The output of PreparedQuery::Explain(): what would run, and why.
struct Explanation {
  Engine engine = Engine::kAuto;
  std::string engine_name;
  std::string analysis;            ///< QueryAnalysis::Describe()
  std::string plan_text;           ///< operator tree with estimates
  OptimizerReport optimizer_report;
  PhysicalPlanPtr plan;            ///< structured operator DAG

  std::string ToString() const;
};

class PreparedQuery {
 public:
  /// An empty handle; using it other than by assignment is invalid.
  PreparedQuery() = default;

  const Query& query() const { return plan_->query; }
  const std::string& text() const { return plan_->text; }
  const std::vector<std::string>& parameter_names() const {
    return plan_->query.parameter_names();
  }
  const QueryAnalysis& analysis() const { return plan_->compiled->analysis; }
  const OptimizerReport& optimizer_report() const {
    return plan_->optimizer_report;
  }

  /// The engine the session's options resolve to for this plan.
  Engine engine() const;

  /// The cost-based physical plan (core/planner.h) for this query against
  /// the session's current GraphIndex snapshot. Cached on the shared
  /// CompiledPlan — every PreparedQuery handle of the same text shares
  /// one costed plan — and re-costed automatically when the Database
  /// swaps its snapshot (a write or a compaction). Thread-safe.
  PhysicalPlanPtr plan() const;

  /// Explains the execution without running it: chosen engine, operator
  /// tree with per-component cardinality estimates, structural analysis,
  /// and the static-optimizer report.
  Explanation Explain() const;

  /// Starts one execution: binds parameters (errors on unbound or unknown
  /// parameters and on unknown nodes) and returns a lazy cursor.
  /// Thread-safe: any number of threads may Execute one PreparedQuery (or
  /// different handles of the same cached plan) concurrently; each call
  /// pins the session's current graph/index snapshot.
  Result<ResultCursor> Execute(const Params& params = {},
                               ExecuteOptions exec = {}) const;

  /// Runs to completion and materializes the full sorted answer set.
  /// Thread-safe (see Execute).
  Result<QueryResult> ExecuteAll(const Params& params = {}) const;

  /// True iff at least one answer exists; the engine stops at the first.
  /// Thread-safe (see Execute).
  Result<bool> Exists(const Params& params = {}) const;

 private:
  friend class Database;
  PreparedQuery(const Database* db, std::shared_ptr<const CompiledPlan> plan)
      : db_(db), plan_(std::move(plan)) {}

  /// Substitutes parameters; shares the plan's query when there are none.
  /// The caller must hold the database's read lock (graph name lookups).
  Result<std::shared_ptr<const Query>> BindParams(const Params& params) const;

  /// plan() body against an already-pinned index snapshot; takes only the
  /// CompiledPlan memo lock.
  PhysicalPlanPtr PlanForIndex(GraphIndexPtr index) const;

  EvalOptions EffectiveOptions(const ExecuteOptions& exec) const;

  const Database* db_ = nullptr;
  std::shared_ptr<const CompiledPlan> plan_;
};

}  // namespace ecrpq

#endif  // ECRPQ_API_PREPARED_QUERY_H_
