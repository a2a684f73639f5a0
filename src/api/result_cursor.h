// Pull-based iteration over the answers of one prepared-query execution.
//
// A ResultCursor runs its engine lazily on the first Next()/exists() call.
// The execution's `limit` (and the limit-1 shortcut behind exists()) is
// pushed down into the engine as early termination — the search stops and
// unconsumed answers (including their Prop 5.2 path-answer automata) are
// never computed. Tuples arrive in engine discovery order; use
// PreparedQuery::ExecuteAll for the canonical sorted materialization.
//
//   auto cursor = prepared.Execute(params, {.limit = 10});
//   while (cursor.value().Next()) {
//     const std::vector<NodeId>& row = cursor.value().tuple();
//     ...
//   }
//
// The engine's rows stay packed in one buffer (core/row_set.h); row()
// reads the current one in place, and tuple() copies it into a row
// buffer on its first call after each Next().

#ifndef ECRPQ_API_RESULT_CURSOR_H_
#define ECRPQ_API_RESULT_CURSOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "util/status.h"

namespace ecrpq {

class Database;

class ResultCursor {
 public:
  /// An empty, exhausted cursor.
  ResultCursor() = default;

  /// Advances to the next answer tuple. Returns false when the results are
  /// exhausted, the execution limit was reached, or evaluation failed
  /// (check status()). The first call triggers evaluation.
  bool Next();

  /// The current tuple; valid after Next() returned true, until the next
  /// Next().
  const std::vector<NodeId>& tuple() const;

  /// The current tuple read in place from the engine's packed rows; valid
  /// after Next() returned true, as long as the cursor lives.
  std::span<const NodeId> row() const { return sink_.tuples[pos_]; }

  /// The Prop 5.2 answer automaton of the current tuple, or null when the
  /// query head has no path variables (or path answers were disabled).
  const PathAnswerSet* path_answers() const {
    return sink_.path_answers.empty() ? nullptr : &sink_.path_answers[pos_];
  }

  /// True iff the query has at least one answer. If evaluation has not
  /// started this runs it with limit 1, so the engine stops at the first
  /// answer; afterwards the cursor serves at most that one row.
  bool exists();

  /// Non-OK when evaluation failed; Next() then returns false.
  const Status& status() const { return status_; }

  /// Engine counters of the (possibly early-terminated) run; meaningful
  /// once evaluation ran.
  const EvalStats& stats() const { return stats_; }

  /// True once evaluation has run (Next()/exists() was called).
  bool ran() const { return ran_; }

  /// Rows served so far through Next().
  uint64_t rows_returned() const { return rows_returned_; }

 private:
  friend class PreparedQuery;
  ResultCursor(const Database* db, const GraphDb* graph, GraphIndexPtr index,
               EvalOptions options, uint64_t limit,
               std::optional<std::chrono::steady_clock::time_point> deadline,
               std::shared_ptr<const Query> query, CompiledQueryPtr compiled,
               std::shared_ptr<const PhysicalPlan> plan, bool static_empty)
      : db_(db),
        graph_(graph),
        index_(std::move(index)),
        options_(options),
        limit_(limit),
        deadline_(deadline),
        query_(std::move(query)),
        compiled_(std::move(compiled)),
        plan_(std::move(plan)),
        static_empty_(static_empty) {}

  void Run(uint64_t limit);

  const Database* db_ = nullptr;  // read-guard provider (null: no locking)
  const GraphDb* graph_ = nullptr;
  GraphIndexPtr index_;  // session-shared CSR index (may be null)
  EvalOptions options_;
  uint64_t limit_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::shared_ptr<const Query> query_;
  CompiledQueryPtr compiled_;
  std::shared_ptr<const PhysicalPlan> plan_;  // cached operator DAG
  bool static_empty_ = false;

  bool ran_ = false;
  MaterializingSink sink_;
  EvalStats stats_;
  Status status_;
  size_t pos_ = 0;
  // The row at tuple_pos_, copied out by tuple().
  mutable std::vector<NodeId> tuple_;
  mutable size_t tuple_pos_ = SIZE_MAX;
  uint64_t rows_returned_ = 0;
};

}  // namespace ecrpq

#endif  // ECRPQ_API_RESULT_CURSOR_H_
